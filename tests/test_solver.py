"""Fixed-point junction solver: spectra, convergence, energy bookkeeping."""

import dataclasses
import gc
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_equal
from scipy.constants import e as E_CHARGE, h as PLANCK, hbar as HBAR
from scipy.fft import next_fast_len
from scipy.special import jv

from ictasim.circuit import DEFAULT_GRID, FrequencyGrid, IctaParams, build_icta, frankenstein_matrix
from ictasim.frankenstein import PortKind, junction_row
from ictasim.solver import (
    BiasPoint,
    SolverOptions,
    Stimulus,
    Tone,
    bias_voltage,
    dbm_to_watts,
    gain,
    iterate,
    josephson_frequency,
    outputs,
    power_balance,
    round_bias,
    tone_amplitude,
    watts_to_dbm,
)
from ictasim.solver import (
    ALPHA_LADDER,
    PROBE_COSETS,
    PROBE_FOLD_MARGIN,
    PROBE_SEED,
    PROBE_STEPS,
    PROBE_ZERO_PAD,
    TAIL_BOUND,
    Chain,
    Lattice,
    PROOF_CHUNK_BYTES,
    PROOF_SQUARINGS,
    PROOF_WIDTH,
    SPLIT_BINS,
    SolutionState,
    _E_CHARGE,
    _HBAR,
    _PLANCK,
    _Chord,
    _Cosets,
    _contracts,
    _cos_phase,
    _coset_blocks,
    _coset_layout,
    _harmonics,
    _fast_len,
    _fixed_point,
    _lattices,
    _off_lattice_growth,
    _off_start,
    _picard_step,
    _probe_grid,
    _round_trip,
    _seeded,
    _tangent_step,
)
from oracles import (
    ArrayResponse,
    bin_power_dbm,
    checked_probe,
    coset_tangent_two_buffers,
    gather_copy,
    gathered_coset_blocks,
    nonlinear_off_lattice_growth,
    picard_loop,
    plain_iterate,
    power_iteration_growth,
    probe_cosets,
    probe_readings,
    probe_start_modes,
    solve,
    time_samples,
    to_spectrum,
    to_time,
    tone_drive,
)

F_DC = 12e9
I_C = 280e-9
ZERO_PAD = SolverOptions.zero_pad


def test_josephson_relation_round_trip():
    v = bias_voltage(12e9)
    assert_allclose(josephson_frequency(v), 12e9, rtol=1e-14)
    # 1 uV of bias oscillates near 483.6 MHz.
    assert_allclose(josephson_frequency(1e-6), 483.6e6, rtol=1e-3)


def test_dbm_conversions():
    assert_allclose(dbm_to_watts(0.0), 1e-3)
    assert_allclose(watts_to_dbm(1e-3), 0.0)
    assert_allclose(watts_to_dbm(dbm_to_watts(-137.2)), -137.2, rtol=1e-12)
    with pytest.raises(ValueError):
        watts_to_dbm(0.0)


def test_tone_amplitude_power_round_trip():
    a = tone_amplitude(-120.0, 50.0, phase=0.7)
    assert_allclose(np.angle(a), 0.7)
    assert_allclose(bin_power_dbm(a, 50.0), -120.0, rtol=1e-12)


def test_round_bias_snaps_to_grid():
    grid = FrequencyGrid(1e6, 2**15)
    assert round_bias(12.0004e9, grid) == 12e9
    assert round_bias(12.0006e9, grid) == 12.001e9
    with pytest.raises(ValueError):
        round_bias(17e9, grid)  # beyond f_max / 2
    with pytest.raises(ValueError):
        round_bias(1e3, grid)  # rounds to bin zero
    with pytest.raises(ValueError):
        round_bias(-1e9, grid)


def test_bias_point_validation():
    bias = BiasPoint(f_dc=12e9, i_c=280e-9)
    assert_allclose(bias.v_dc, bias_voltage(12e9))
    with pytest.raises(ValueError):
        BiasPoint(f_dc=0.0, i_c=1e-9)
    with pytest.raises(ValueError):
        BiasPoint(f_dc=12e9, i_c=-1e-9)


@pytest.mark.parametrize(
    "field, make",
    [
        pytest.param("f_dc", lambda: BiasPoint(True, 280e-9), id="f_dc"),
        pytest.param("i_c", lambda: BiasPoint(12e9, np.True_), id="i_c"),
        pytest.param("frequency", lambda: Tone(True, -140.0), id="frequency"),
        pytest.param("power_dbm", lambda: Tone(5.6e9, True), id="power_dbm"),
        pytest.param("phase", lambda: Tone(5.6e9, -140.0, phase=True), id="phase"),
        pytest.param("tolerance", lambda: SolverOptions(tolerance=True), id="tolerance"),
    ],
)
def test_numeric_fields_reject_bools(field, make):
    # True passes every range check as 1: f_dc 1 Hz, tolerance 1, a 1 dBm tone.
    with pytest.raises(ValueError, match=f"{field} must be a number, not a bool"):
        make()


def test_time_spectrum_round_trip():
    rng = np.random.default_rng(2)
    grid = FrequencyGrid(1e7, 256)
    spec = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    spec[0] = spec[0].real
    for zero_pad in (1, 2, 4):
        samples = to_time(spec, grid, zero_pad)
        assert samples.shape == (2 * zero_pad * 256,)
        assert_allclose(to_spectrum(samples, grid), spec, atol=1e-12)


def test_single_tone_time_samples():
    grid = FrequencyGrid(1e7, 256)
    amp, k, theta = 0.35, 17, 0.4
    spec = np.zeros(256, dtype=complex)
    spec[k] = 0.5 * amp * np.exp(1j * theta)
    t = time_samples(grid)
    expected = amp * np.cos(2 * np.pi * grid.frequencies[k] * t + theta)
    assert_allclose(to_time(spec, grid), expected, atol=1e-12)


def test_phase_update_integrates_voltage():
    # One zero-feedback step turns a voltage tone into I_c sin(phi), where phi
    # is the bias ramp plus 2e/hbar times the integrated tone.
    grid = FrequencyGrid(1e7, 256)
    bias = BiasPoint(f_dc=64e7, i_c=1e-7)
    v = np.zeros(256, dtype=complex)
    v0, k = 4e-7, 12
    v[k] = 0.5 * v0
    options = SolverOptions()
    trip = _round_trip(grid.frequencies, 64, bias, options.zero_pad)
    step = _picard_step(np.zeros(256, dtype=complex), v, trip)
    t = time_samples(grid, options.zero_pad)
    w = 2 * np.pi * grid.frequencies[k]
    phi = 2 * np.pi * bias.f_dc * t + (2 * E_CHARGE / HBAR) * v0 * np.sin(w * t) / w
    expected = to_spectrum(bias.i_c * np.sin(phi), grid)
    updated = step(np.zeros(256, dtype=complex), np.empty(256, dtype=complex))
    assert_allclose(updated, expected, rtol=0, atol=1e-9 * bias.i_c)


def _bare_junction_row(grid, port_impedance=50.0):
    # Zero feedback: the junction sees no embedding impedance and the wave
    # port couples straight onto the junction voltage.
    values = np.zeros((grid.size, 2, 2), dtype=complex)
    values[:, 1, 0] = 1.0
    kinds = (PortKind.wave(port_impedance), PortKind.current_bias())
    return junction_row(ArrayResponse(values, kinds, grid))


def test_zero_critical_current_converges_immediately():
    grid = FrequencyGrid(16e6, 2048)
    row = _bare_junction_row(grid)
    bias = BiasPoint(f_dc=F_DC, i_c=0.0)
    state = iterate(row, bias, Stimulus.single(6e9, -140.0))
    assert state.converged
    assert state.iterations == 1
    assert state.residual == 0.0
    assert np.all(state.i_j == 0.0)
    # stride gcd(375, 750); with i_c = 0 there is nothing to probe
    assert state.lattice.unit == 375 and np.isnan(state.off_lattice_growth)


def test_pure_pump_line_magnitude():
    # With no feedback and no stimulus the junction current is I_c sin of the
    # bare ramp: a single line of stored magnitude I_c / 2 at the pump bin.
    grid = FrequencyGrid(16e6, 2048)
    row = _bare_junction_row(grid)
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    state = iterate(row, bias, Stimulus.none())
    m = int(round(F_DC / grid.spacing))
    assert state.converged
    # Stimulus-free: the pump comb.
    assert state.lattice.unit == m and np.isnan(state.off_lattice_growth)
    assert_allclose(abs(state.i_j[m]), I_C / 2, rtol=1e-12)
    others = np.abs(np.delete(state.i_j, m))
    assert others.max() < 1e-12 * I_C


def test_phase_modulation_sidebands_follow_bessel():
    # A small voltage tone phase-modulates the ramp; the current sidebands
    # must carry Bessel-function weights (stored lines I_c J_n(d) / 2).
    grid = FrequencyGrid(16e6, 2048)
    row = _bare_junction_row(grid)
    f_m = 320e6
    k = int(round(f_m / grid.spacing))
    m = int(round(F_DC / grid.spacing))
    for depth in (0.05, 0.02):
        a = depth * HBAR * 2 * np.pi * f_m / (4 * E_CHARGE)
        stim = Stimulus.single(f_m, bin_power_dbm(a, 50.0))
        state = iterate(row, BiasPoint(f_dc=F_DC, i_c=I_C), stim)
        assert state.converged and state.iterations == 2
        # stride gcd(20, 750); without feedback the off-lattice probe decays at once
        assert state.lattice.unit == 10 and state.off_lattice_growth == 0.0
        assert_allclose(abs(state.i_j[m]), I_C * jv(0, depth) / 2, rtol=1e-9)
        for n in (1, 2):
            expected = I_C * abs(jv(n, depth)) / 2
            assert_allclose(abs(state.i_j[m + n * k]), expected, rtol=1e-6)
            assert_allclose(abs(state.i_j[m - n * k]), expected, rtol=1e-6)
            # Acceptance-style bound: within 1 percent at depth <= 0.05.
            assert abs(abs(state.i_j[m + n * k]) - expected) <= 0.01 * expected


def test_solver_spectra_are_real_signals(canonical_f):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    state = solve(canonical_f, bias, Stimulus.single(6e9, -130.0))
    assert state.converged
    assert abs(state.i_j[0].imag) < 1e-20
    assert abs(state.v_j[0].imag) < 1e-16
    # Round trip through the time domain reproduces the stored spectrum.
    i_t = to_time(state.i_j, grid=state.grid, zero_pad=state.zero_pad)
    assert np.isrealobj(i_t)
    assert_allclose(to_spectrum(i_t, state.grid), state.i_j, atol=1e-20)


def test_pump_only_harmonic_comb(canonical_f, coarse_grid):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    state = solve(canonical_f, bias, Stimulus.none())
    assert state.converged
    m = int(round(F_DC / coarse_grid.spacing))
    comb = np.zeros(coarse_grid.size, dtype=bool)
    comb[::m] = True
    off_comb = np.abs(state.i_j[~comb])
    assert off_comb.max() < 1e-10 * I_C
    assert abs(state.i_j[m]) > 0.1 * I_C


def test_power_balance_converged_solution(canonical_f):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    state = solve(canonical_f, bias, Stimulus.single(6e9, -130.0))
    balance = power_balance(state)
    assert state.converged
    assert balance.relative_error < 1e-8
    assert balance.dc_supplied > 0.0
    assert_allclose(balance.rf_net, balance.dc_supplied, rtol=1e-6)


def test_power_balance_requires_outputs(canonical_f):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    row_state = iterate(junction_row(canonical_f), bias, Stimulus.none())
    with pytest.raises(ValueError):
        power_balance(row_state)


def test_gain_in_working_band(canonical_f):
    # 6.4 GHz sits on the flat plateau away from the degenerate point.
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    state = solve(canonical_f, bias, Stimulus.single(6.4e9, -140.0))
    g = gain(state, 6.4e9)
    assert 8.0 < g < 13.0
    with pytest.raises(ValueError):
        gain(state, 5e9)


def test_small_signal_gain_is_linear(canonical_f):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    g = [
        gain(solve(canonical_f, bias, Stimulus.single(6.4e9, p)), 6.4e9)
        for p in (-150.0, -140.0)
    ]
    assert abs(g[0] - g[1]) < 0.01


def test_nondegenerate_gain_ignores_phase(canonical_f):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    g = [
        gain(solve(canonical_f, bias, Stimulus.single(5.008e9, -140.0, phase=ph)), 5.008e9)
        for ph in (0.0, 1.1)
    ]
    assert abs(g[0] - g[1]) < 1e-6


def test_degenerate_gain_is_phase_sensitive(canonical_f):
    # At f_s = f_dc / 2 signal and idler coincide and the amplifier becomes
    # phase sensitive.
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    f_s = F_DC / 2
    g = [
        gain(solve(canonical_f, bias, Stimulus.single(f_s, -140.0, phase=ph)), f_s)
        for ph in np.linspace(0.0, np.pi, 8, endpoint=False)
    ]
    assert max(g) - min(g) > 3.0


def test_idler_emission_at_difference_frequency(canonical_f, coarse_grid):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    f_s = 6.4e9
    state = solve(canonical_f, bias, Stimulus.single(f_s, -140.0))
    k_s = int(round(f_s / coarse_grid.spacing))
    k_i = int(round((F_DC - f_s) / coarse_grid.spacing))
    a = state.a_out[0]
    # Idler power within a few dB of the signal output in the high-gain limit.
    ratio_db = 20 * np.log10(abs(a[k_i]) / abs(a[k_s]))
    assert -3.0 < ratio_db < 0.5


def test_warm_start_reproduces_cold_solution(canonical_f):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    stim = Stimulus.single(6e9, -125.0)
    row = junction_row(canonical_f)
    cold = iterate(row, bias, stim)
    warm = iterate(row, bias, stim, initial=cold.i_j)
    assert warm.converged
    assert warm.iterations < cold.iterations
    assert_allclose(warm.i_j, cold.i_j, atol=1e-11 * I_C)
    g_cold = gain(outputs(cold), 6e9)
    g_warm = gain(outputs(warm), 6e9)
    assert abs(g_cold - g_warm) < 0.01


def test_relaxation_reaches_same_fixed_point(canonical_f):
    # Plain Picard is the solver's only update; the damped loop x + r (step(x)
    # - x) lives on as the oracle `picard_loop`.  On the chord path and past
    # it (path "fallback"), the solve stops on the plain map's change, and
    # one plain step on its lattice moves the returned state by less than the
    # tolerance.  The oracle reaches the same full-grid state at r = 1, 0.5
    # and 0.25 (324, 457 and 821 steps at 4.0 GHz; 51, 103 and 213 at 6.4
    # GHz), and one plain step moves it by less than the tolerance too.
    bias, tolerance = BiasPoint(f_dc=F_DC, i_c=I_C), SolverOptions().tolerance
    row = junction_row(canonical_f)
    for f_s, power in ((6e9, -130.0), (6.4e9, -140.0)):
        state = iterate(row, bias, Stimulus.single(f_s, power))
        assert state.converged and state.path == "chord" and state.residual < tolerance
    for f_s, power, i_c in ((4.0e9, -110.0, 300e-9), (6.4e9, -100.0, 280e-9)):
        stim, strong = Stimulus.single(f_s, power), BiasPoint(f_dc=F_DC, i_c=i_c)
        drive = tone_drive(row.response, stim)
        state = iterate(row, strong, stim)
        assert state.converged and state.path == "fallback"
        assert state.residual < tolerance
        lattice = state.lattice
        trip = _round_trip(lattice.frequencies, lattice.pump, strong, ZERO_PAD)
        step = _picard_step(lattice.gather(row.f_jj), lattice.gather(drive), trip)
        x = lattice.gather(state.i_j).copy()
        assert np.max(np.abs(step(x, np.empty_like(x)) - x)) < tolerance * i_c
        grid = row.response.grid
        trip = _round_trip(grid.frequencies, lattice.pump * lattice.unit, strong, ZERO_PAD)
        step = _picard_step(row.f_jj, drive, trip)
        steps = []
        for relaxation in (1.0, 0.5, 0.25):
            oracle = plain_iterate(row, strong, stim, SolverOptions(), relaxation=relaxation)
            assert oracle.converged
            x = oracle.i_j.copy()
            assert np.max(np.abs(step(x, np.empty_like(x)) - x)) < tolerance * i_c
            assert_allclose(oracle.i_j, state.i_j, rtol=0, atol=1e-10 * i_c)
            steps.append(oracle.iterations)
        assert steps == sorted(set(steps))  # damping slows the loop
    with pytest.raises(TypeError):
        SolverOptions(relaxation=0.5)


def test_divergent_response_stops_unconverged():
    grid = FrequencyGrid(16e6, 2048)
    row = _bare_junction_row(grid)
    f_jj = row.f_jj.copy()
    f_jj[750] = np.inf  # an undamped resonance right on the pump bin
    bad = replace(row, f_jj=f_jj)
    for i_c in (I_C, 0.0):  # a zero critical current still reads a non-finite residual
        # The state is the only report: numpy's own warning would be an error here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = iterate(bad, BiasPoint(f_dc=F_DC, i_c=i_c), Stimulus.none())
        assert not state.converged
        assert not np.isfinite(state.residual)
        assert state.iterations == 1
        assert not np.all(np.isfinite(state.i_j))
        assert np.isnan(state.off_lattice_growth)
    # The update loop itself ends on the non-finite iterate step(x), unconverged.
    def blown(x, out):
        out[:] = x
        out[1] = np.nan
        return out

    end, count, converged, delta = _fixed_point(blown, np.ones(4, dtype=complex), 0.0,
                                                SolverOptions())
    assert np.isnan(end[1]) and np.all(end[[0, 2, 3]] == 1.0) and np.isnan(delta)
    assert count == 1 and not converged


def test_iteration_budget_flags_nonconvergence():
    grid = FrequencyGrid(16e6, 2048)
    row = _bare_junction_row(grid)
    state = iterate(
        row,
        BiasPoint(f_dc=F_DC, i_c=I_C),
        Stimulus.single(6e9, -130.0),
        SolverOptions(max_iterations=1, tolerance=1e-300),
    )
    assert not state.converged
    assert state.iterations == 1


def test_stimulus_validation(canonical_f):
    row = junction_row(canonical_f)
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    with pytest.raises(ValueError):
        iterate(row, bias, Stimulus.single(40e9, -140.0))
    with pytest.raises(ValueError):
        Tone(frequency=-1e9, power_dbm=-140.0)
    with pytest.raises(ValueError):
        iterate(row, BiasPoint(f_dc=F_DC + 0.3e6, i_c=I_C), Stimulus.none())
    with pytest.raises(ValueError):
        iterate(row, bias, Stimulus.none(), initial=np.zeros(17))
    # A NaN phase would reach the solve and come back as a diverged point.
    for phase in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="phase"):
            Stimulus.single(5.6e9, -140.0, phase=phase)


@pytest.mark.parametrize(
    "setting",
    [{"zero_pad": 2.5}, {"zero_pad": True}, {"max_iterations": 2.5},
     {"max_iterations": True}, {"tolerance": np.inf}, {"tolerance": np.nan}],
    ids=["zero_pad-float", "zero_pad-bool", "max_iterations-float", "max_iterations-bool",
         "tolerance-inf", "tolerance-nan"],
)
def test_solver_options_reject_non_integer_counts_and_non_finite_tolerance(setting):
    # zero_pad 2.5 would fail inside the first solve, and an infinite
    # tolerance would call every solve converged after one step.
    with pytest.raises(ValueError):
        SolverOptions(**setting)


def test_solver_options_accept_numpy_integers():
    options = SolverOptions(max_iterations=np.int64(30), zero_pad=np.int32(2))
    assert options == SolverOptions(max_iterations=30, zero_pad=2)


def test_iterate_rejects_a_chain_of_another_operating_point(canonical_f):
    # A chain is bound to the row object, bias and options it was built for
    # (pump bin 750 at 12 GHz on the 16 MHz grid); a solve at another row,
    # bias or options raises and leaves the chain as it was, and one at
    # equal bias and options is the lone solve, bit for bit.
    row, bias, options = junction_row(canonical_f), BiasPoint(f_dc=F_DC, i_c=I_C), SolverOptions()
    stim = Stimulus.single(5.6e9, -140.0)
    with pytest.raises(TypeError):
        Chain()
    chain = Chain(row, bias, options)
    assert chain.row is row and (chain.bias, chain.options, chain.m) == (bias, options, 750)
    others = [
        (replace(row), bias, options),  # an equal row, but another object
        (row, BiasPoint(f_dc=F_DC, i_c=300e-9), options),
        (row, BiasPoint(f_dc=11e9, i_c=I_C), options),
        (row, bias, SolverOptions(max_iterations=3000)),
    ]
    for other_row, other_bias, other_options in others:
        with pytest.raises(ValueError, match="another row, bias or options"):
            iterate(other_row, other_bias, stim, other_options, chain=chain)
    state = iterate(row, BiasPoint(f_dc=F_DC, i_c=I_C), stim, SolverOptions(), chain=chain)
    lone = iterate(row, bias, stim, options)
    assert np.array_equal(state.i_j, lone.i_j) and state.iterations == lone.iterations
    assert state.probe_steps == lone.probe_steps > 0


def test_dc_current_drawn_is_positive(canonical_f):
    # The supply must source power while the junction pumps the resonator.
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    state = solve(canonical_f, bias, Stimulus.none())
    dc_row = canonical_f.netlist.port_names.index("dc")
    i_dc = state.a_out[dc_row, 0]
    assert abs(i_dc.imag) < 1e-18
    assert i_dc.real > 0.0


@pytest.mark.parametrize("stim", [Stimulus.single(6.4e9, -130.0), Stimulus.none()],
                         ids=["sub-lattice", "pump-only"])
def test_outputs_keep_bias_stiff(coarse_grid, stim):
    # The junction voltage the loop solved for is what `outputs` reports at
    # the junction port, bin 0 included: there the DC bias voltage must not
    # reach the junction row (F_j,dc(0) V_dc is about 2.5e-5 V against a
    # junction voltage of about 1e-9 V at 0.1 ohm bias resistance).
    f = frankenstein_matrix(build_icta(IctaParams(bias_resistance=0.1)), coarse_grid)
    state = iterate(junction_row(f), BiasPoint(f_dc=F_DC, i_c=I_C), stim)
    assert state.lattice.unit == (50 if stim.tones else round(F_DC / coarse_grid.spacing))
    lattice = slice(None, None, state.lattice.unit)
    a_j = outputs(state).a_out[1, lattice]
    v_j = state.v_j[lattice]
    assert np.max(np.abs(a_j - v_j)) <= 1e-12 * np.max(np.abs(v_j))


# ---------------------------------------------------------------- lattices


@pytest.mark.parametrize("s", [1, 3, 160])
def test_stride_lattice_is_the_strided_grid(s):
    grid, m = DEFAULT_GRID, 12000
    lattice = Lattice.stride(grid, m, s)
    rng = np.random.default_rng(s)
    x = [1.0, 1j] @ rng.standard_normal((2, grid.size))
    y = x[::s].copy()
    assert np.array_equal(lattice.gather(x), x[::s])
    assert np.array_equal(lattice.frequencies, grid.frequencies[::s])
    lifted = np.zeros(grid.size, dtype=complex)
    lifted[::s] = y
    assert np.array_equal(lattice.lift(y), lifted)
    assert np.array_equal(lattice.gather(lattice.lift(y)), y)
    assert np.array_equal(lattice.covered, np.arange(grid.size) % s == 0)
    assert not lattice.conjugate.any() and lattice.alpha == 0
    assert (lattice.pump, lattice.unit) == (m // s, s)
    assert np.isnan(lattice.tail(lattice.gather(x)))  # no signal orders to bound


def _assert_same_state(a, b):
    """Every field of two solve states equal bit for bit."""
    def same(p, q):
        if isinstance(p, np.ndarray):
            return p.dtype == q.dtype and np.array_equal(p.view(np.uint8), q.view(np.uint8))
        if isinstance(p, float):
            return p.hex() == q.hex()
        if isinstance(p, Lattice):
            return all(same(getattr(p, f.name), getattr(q, f.name))
                       for f in dataclasses.fields(Lattice))
        return p is q or p == q

    for field in dataclasses.fields(SolutionState):
        assert same(getattr(a, field.name), getattr(b, field.name)), field.name


def test_full_grid_gather_is_a_view(canonical_f, monkeypatch):
    # The stride lattice of unit 1 gathers a complex grid spectrum as itself.
    # A solve on it (two coprime tones; a stimulus-free one at zero_pad 1,
    # which tries no comb) from a warm start writes to none of the arrays it
    # gathered, and its state is bit for bit the one from gathers that copy.
    grid = canonical_f.grid
    x = [1.0, 1j] @ np.random.default_rng(5).standard_normal((2, grid.size))
    assert Lattice.stride(grid, 750, 1).gather(x) is x
    assert Lattice.stride(grid, 750, 3).gather(x) is not x
    row, bias = junction_row(canonical_f), BiasPoint(f_dc=F_DC, i_c=I_C)
    f_jj = row.f_jj.copy()
    solves = [
        (Stimulus((Tone(6.416e9, -140.0), Tone(5.6e9, -140.0))), SolverOptions()),
        (Stimulus.none(), SolverOptions(zero_pad=1)),
    ]
    for stim, options in solves:
        cold = iterate(row, bias, stim, options)
        assert cold.lattice.unit == 1 and cold.converged
        initial = cold.i_j * 0.5
        kept = initial.copy()
        states = [iterate(row, bias, stim, options, initial=initial)]
        assert np.array_equal(initial, kept) and np.array_equal(row.f_jj, f_jj)
        with monkeypatch.context() as patch:
            patch.setattr(Lattice, "gather", gather_copy)
            states.append(iterate(row, bias, stim, options, initial=initial))
        _assert_same_state(*states)


@pytest.mark.parametrize("alpha", ALPHA_LADDER)
@pytest.mark.parametrize("k, s", [(5621, 1), (4501, 1), (6003, 3), (6024, 24), (14003, 1)])
def test_embedded_lattice_maps_products_to_the_grid(alpha, k, s):
    grid, m = DEFAULT_GRID, 12000
    lattice = Lattice.embedded(grid, m, k, s, alpha)
    on = lattice.grid_bins >= 0
    bins = lattice.grid_bins[on]
    assert np.unique(bins).size == bins.size  # each grid bin at most once
    assert np.all(bins % s == 0) and lattice.unit == s
    assert lattice.pump == alpha and lattice.grid_bins[alpha] == m
    (beta,) = np.flatnonzero((lattice.grid_bins == k) & ~lattice.conjugate)
    assert lattice.orders[beta] == 1 and math.gcd(alpha, beta) == 1
    assert not lattice.conjugate[alpha] and not lattice.conjugate[beta]
    assert np.array_equal(lattice.conjugate, lattice.frequencies < 0)
    assert np.array_equal(np.abs(lattice.frequencies[on]), grid.frequencies[bins])
    assert np.all(np.abs(lattice.frequencies[~on]) >= grid.f_max)
    # Bin v holds product a m + b k with v = a alpha + b beta, |b| <= (alpha - 1) / 2.
    v = np.arange(lattice.size)
    assert np.all(np.abs(lattice.orders) <= (alpha - 1) // 2)
    a = (v - lattice.orders * beta) // alpha
    assert np.array_equal(a * alpha + lattice.orders * beta, v)
    assert np.allclose(lattice.frequencies, (a * m + lattice.orders * k) * grid.spacing)
    # The size is 5-smooth.
    size = lattice.size
    for p in (2, 3, 5):
        while size % p == 0:
            size //= p
    assert size == 1
    rng = np.random.default_rng(alpha)
    x = np.where(on, [1.0, 1j] @ rng.standard_normal((2, lattice.size)), 0.0)
    assert np.array_equal(lattice.gather(lattice.lift(x)), x)
    y = [1.0, 1j] @ rng.standard_normal((2, grid.size))
    assert np.array_equal(lattice.lift(lattice.gather(y)), np.where(lattice.covered, y, 0.0))


def test_embedded_lattice_holds_every_product_on_the_grid():
    # Every product a m + b k with |b| <= (alpha - 1) / 2 that lies on the
    # grid has a lattice bin.
    grid, m, k, alpha = FrequencyGrid(16e6, 2048), 750, 401, 33
    lattice = Lattice.embedded(grid, m, k, 1, alpha)
    held = set(zip((lattice.frequencies / grid.spacing).round().astype(int).tolist(),
                   lattice.orders.tolist()))
    for b in range(-(alpha // 2), alpha // 2 + 1):
        for a in range(-5, 6):
            f = a * m + b * k
            if 0 < f < grid.size:
                assert (f, b) in held or (-f, -b) in held


def test_solves_that_keep_the_stride_lattice(canonical_f, coarse_grid):
    # Multi-tone and stimulus-free solves run on the stride lattice, and so
    # does a single tone whose products could meet on one grid bin within
    # the top alpha's orders (m / gcd(m, k) at most ALPHA_LADDER[-1]): the
    # degenerate and pump-line cells, and every cell of the benchmark's coarse
    # map and 160 MHz profile lattice.
    row = junction_row(canonical_f)
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    two_tones = Stimulus((Tone(401 * 16e6, -140.0), Tone(403 * 16e6, -140.0)))
    for stim in (two_tones, Stimulus.none(), Stimulus.single(6e9, -140.0)):
        state = iterate(row, bias, stim)
        assert state.lattice.alpha == 0 and np.isnan(state.tail)
    assert iterate(row, bias, two_tones).lattice.size == coarse_grid.size
    map_grid = FrequencyGrid(20e6, 2048)
    for m in range(416, 897, 32):  # bias rows 8.32 to 17.92 GHz
        for k in [*range(160, 481, 16), m, m // 2]:
            (only,) = _lattices(map_grid, m, [k], math.gcd(m, k), I_C, ZERO_PAD)
            assert only.alpha == 0
    for k in range(5440, 6561, 160):  # the 160 MHz profile lattice at f_dc 12 GHz
        (only,) = _lattices(DEFAULT_GRID, 12000, [k], math.gcd(12000, k), I_C, ZERO_PAD)
        assert only.alpha == 0
    assert len(list(_lattices(DEFAULT_GRID, 12000, [5621], 1, I_C, ZERO_PAD))) > 1


@pytest.mark.parametrize(
    "tones, i_c, alphas",
    [
        ([5621, 5622], I_C, ()),  # multi-tone
        ([], I_C, ()),  # stimulus-free
        ([5621], 0.0, ()),  # i_c = 0
        ([6000], I_C, ()),  # degenerate, m / s = 2
        ([6016], I_C, ()),  # m / s = 375 (s = 32)
        ([5621], I_C, ALPHA_LADDER),  # stride 1 at 12 GHz
        # m / s = 400 (s = 30): the alpha-385 rung (1125 bins) is not smaller
        # than the 1093-bin stride lattice
        ([6030], I_C, ALPHA_LADDER[:-1]),
    ],
    ids=["two-tones", "no-stimulus", "no-junction", "degenerate", "m/s-375", "stride-1",
         "stride-30"],
)
def test_lattices_end_with_the_stride_lattice(tones, i_c, alphas):
    # Every solve ends on the stride lattice; the embedded rungs before it
    # climb the ladder while they stay smaller than it.  A stimulus-free
    # solve with i_c > 0 tries the pump comb first.
    grid, m = DEFAULT_GRID, 12000
    s = math.gcd(m, *tones) if tones else 1
    *rungs, last = _lattices(grid, m, tones, s, i_c, ZERO_PAD)
    if not tones:
        comb, *rungs = rungs
        assert comb.unit == m and comb.pump == 1 and comb.size == 3
    assert last.alpha == 0 and last.unit == s and last.orders is None
    assert np.array_equal(last.grid_bins, np.arange(0, grid.size, s))
    assert tuple(rung.alpha for rung in rungs) == alphas
    assert all(rung.unit == s and rung.size < last.size for rung in rungs)


# ---------------------------------------------------------------- sub-lattice solves


@pytest.fixture(scope="module")
def default_f():
    return frankenstein_matrix(build_icta(IctaParams()), DEFAULT_GRID)


@pytest.fixture(scope="module")
def map_f():
    # The gain-map grid of 2048 bins of 20 MHz, below SPLIT_BINS.
    return frankenstein_matrix(build_icta(IctaParams()), FrequencyGrid(spacing=20e6, size=2048))


def _lone_start(row, state):
    """The start of a lone solve's probe: the comb's (`Chain.probe_start`)
    on a stride lattice of unit s > 1 whose comb converged, else None (the
    seeded one)."""
    if state.lattice.alpha == 0 and state.lattice.unit > 1:
        return Chain(row, state.bias, SolverOptions()).probe_start(state.lattice.unit)
    return None


def _assert_checked(row, state, start):
    """The state reports `checked_probe` from `start` bit for bit, the zero_pad
    1 reading only where it plus PROBE_FOLD_MARGIN folds is below 1 (on a
    grid of at least SPLIT_BINS bins), and reaches the zero_pad 2 verdict."""
    report, stable = checked_probe(row, state, start)
    assert_equal(report, (state.off_lattice_growth, state.probe_steps, state.probe_fold,
                          state.probe_zero_pad))
    assert state.converged == stable


def _probe_oracle(row, state):
    """`nonlinear_off_lattice_growth` of a lone solve's probe, checked by
    `_assert_checked`, from the same start, for as many steps, on the
    samples of the step that decided (the zero_pad the state records, by
    coset or on the full grid)."""
    start = _lone_start(row, state)
    _assert_checked(row, state, start)
    _, samples = _probe_grid(row.f_jj.size, state.lattice.unit, state.probe_zero_pad)
    return nonlinear_off_lattice_growth(row, state, samples, start=start,
                                        steps=state.probe_steps)


@pytest.fixture
def no_chord(monkeypatch):
    """Plain Picard on every lattice: no chord applies."""
    monkeypatch.setattr(Chain, "chord", lambda *args: None)


@pytest.mark.parametrize(
    "f_s, stride", [(5.12e9, 160), (5.28e9, 480), (6.4e9, 800), (5.025e9, 75)]
)
def test_sub_lattice_matches_full_grid(no_chord, default_f, f_s, stride):
    # Plain Picard on the stride lattice takes the full grid's steps; the
    # chord's own agreement with the full grid is tested below.
    row = junction_row(default_f)
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    stim = Stimulus.single(f_s, -140.0)
    fast = iterate(row, bias, stim)
    oracle = plain_iterate(row, bias, stim, SolverOptions())
    assert fast.lattice.unit == stride and oracle.lattice.unit == 1
    assert 0.0 < fast.off_lattice_growth < 1.0 and np.isnan(oracle.off_lattice_growth)
    assert abs(fast.off_lattice_growth - _probe_oracle(row, fast)) <= 1e-5
    # At -140 dBm the zero_pad 1 reading (0.966) lies within two folds (0.04)
    # of 1, so the probe runs again at zero_pad 2 and reports that reading.
    r1, _, r2, _, fold = probe_readings(row, fast, _lone_start(row, fast))
    assert r1 < 1.0 <= r1 + PROBE_FOLD_MARGIN * fold
    assert fast.probe_zero_pad == 2 and fast.off_lattice_growth == r2
    assert fast.converged and oracle.converged
    assert fast.iterations == oracle.iterations
    assert np.all(fast.i_j[np.arange(fast.i_j.size) % stride != 0] == 0.0)
    assert_allclose(fast.i_j, oracle.i_j, rtol=0, atol=1e-14 * I_C)
    g_fast = gain(outputs(fast), f_s)
    g_oracle = gain(outputs(oracle), f_s)
    assert abs(g_fast - g_oracle) <= 1e-9


@pytest.mark.parametrize(
    "k, stride", [(5621, 1), (5606, 2), (6003, 3), (6006, 6), (6012, 12), (6024, 24)]
)
def test_low_strides_run_embedded(default_f, k, stride):
    # Every pump/tone product of these strides fits a lattice of a few dozen
    # bins at -140 dBm, where the full grid or the stride lattice holds
    # 32768 / stride.
    row = junction_row(default_f)
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    stim = Stimulus.single(k * 1e6, -140.0)
    fast = iterate(row, bias, stim)
    oracle = plain_iterate(row, bias, stim, SolverOptions())
    assert fast.lattice.unit == stride and fast.lattice.alpha in ALPHA_LADDER
    assert fast.lattice.size < DEFAULT_GRID.size // stride
    assert 0.0 < fast.tail < TAIL_BOUND and 0.0 < fast.off_lattice_growth < 1.0
    # From stride 3 the probe's zero_pad 1 steps run by coset (its zero_pad 2
    # steps from stride 6), coset 0's off bins included.
    assert abs(fast.off_lattice_growth - _probe_oracle(row, fast)) <= 1e-5
    assert fast.converged == oracle.converged
    assert abs(gain(outputs(fast), k * 1e6) - gain(outputs(oracle), k * 1e6)) <= 1e-9


def test_guard_climbs_the_alpha_ladder(default_f):
    # 8 f_s - 3 f_dc = 8 MHz: at -108 dBm the near-commensurate products
    # carry too much current on the outer orders of the smallest lattices.
    row = junction_row(default_f)
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    stim = Stimulus.single(4.501e9, -108.0)
    fast = iterate(row, bias, stim)
    oracle = plain_iterate(row, bias, stim, SolverOptions())
    lattice = fast.lattice
    assert lattice.alpha in ALPHA_LADDER[1:] and 0.0 < fast.tail < TAIL_BOUND
    assert fast.iterations > oracle.iterations  # the lower rungs ran first
    assert fast.converged and oracle.converged
    assert abs(gain(outputs(fast), 4.501e9) - gain(outputs(oracle), 4.501e9)) <= 1e-9
    # The tail is the converged current on the two outermost orders.
    outer = np.abs(lattice.orders) >= (lattice.alpha - 1) // 2 - 1
    on = outer & (lattice.grid_bins >= 0)
    assert np.sqrt(np.sum(np.abs(fast.i_j[lattice.grid_bins[on]]) ** 2)) <= fast.tail * I_C


def test_guard_falls_back_to_the_stride_lattice(monkeypatch, canonical_f):
    # With a ladder topped at 33, a -100 dBm tone misses the bound on every
    # rung (alpha 129 is needed), so the solve ends on the full 2048-bin grid.
    monkeypatch.setattr("ictasim.solver.ALPHA_LADDER", (17, 33))
    row = junction_row(canonical_f)
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    stim = Stimulus.single(401 * 16e6, -100.0)
    state = iterate(row, bias, stim)
    oracle = plain_iterate(row, bias, stim, SolverOptions())
    assert state.lattice.alpha == 0 and state.lattice.size == canonical_f.grid.size
    assert np.isnan(state.tail) and np.isnan(state.off_lattice_growth)
    assert state.converged and oracle.converged
    assert abs(gain(outputs(state), 401 * 16e6) - gain(outputs(oracle), 401 * 16e6)) <= 1e-9


def test_warm_start_from_another_lattice(canonical_f, coarse_grid):
    # Bins 320, 401 and 400 against pump bin 750: strides 10, 1 and 50.
    row = junction_row(canonical_f)
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    stim = Stimulus.single(6.4e9, -140.0)
    cold = iterate(row, bias, stim)
    assert cold.lattice.unit == 50 and cold.converged
    for k in (320, 401):
        neighbour = iterate(row, bias, Stimulus.single(k * coarse_grid.spacing, -140.0))
        assert neighbour.lattice.unit == (10 if k == 320 else 1)
        warm = iterate(row, bias, stim, initial=neighbour.i_j)
        assert warm.converged and warm.lattice.unit == 50
        assert_allclose(warm.i_j, cold.i_j, rtol=0, atol=1e-10 * I_C)
        g_warm = gain(outputs(warm), 6.4e9)
        assert abs(g_warm - gain(outputs(cold), 6.4e9)) < 1e-8


def _probe_case(bias_resistance, f_s=4.087e9):
    # f_dc = 3 f_s: pump bin 12261, signal bin 4087, a 9-bin lattice
    net = build_icta(IctaParams(bias_resistance=bias_resistance))
    row = junction_row(frankenstein_matrix(net, DEFAULT_GRID))
    return row, BiasPoint(f_dc=12.261e9, i_c=100e-9), Stimulus.single(f_s, -140.0)


def test_probe_masks_off_lattice_instability():
    # The sub-lattice converges, but an off-lattice perturbation grows on the
    # full grid; the 16 MHz grid does not show this, DEFAULT_GRID does.
    row, bias, stim = _probe_case(0.6)
    state = iterate(row, bias, stim)
    assert state.lattice.unit == 4087
    assert state.residual < 1e-12  # the sub-lattice loop itself converged
    assert not state.converged
    assert state.off_lattice_growth > 2.0
    _assert_checked(row, state, _lone_start(row, state))
    # The oracle, continued from the lifted state plus a small off-lattice
    # perturbation, runs away from it instead of returning.
    off = np.arange(state.i_j.size) % state.lattice.unit != 0
    noise = np.where(off, np.random.default_rng(5).standard_normal(off.size), 0.0)
    noise *= 1e-9 * bias.i_c / np.sqrt(np.sum(noise**2))
    oracle = plain_iterate(
        row, bias, stim, SolverOptions(max_iterations=40), initial=state.i_j + noise
    )
    assert not oracle.converged
    assert np.sqrt(np.sum(np.abs(oracle.i_j[off]) ** 2)) > 1e-6 * bias.i_c


def test_probe_passes_stable_point():
    row, bias, stim = _probe_case(0.1)
    state = iterate(row, bias, stim)
    assert state.lattice.unit == 4087
    assert state.converged
    assert 0.5 < state.off_lattice_growth < 1.0
    _assert_checked(row, state, _lone_start(row, state))


@pytest.mark.parametrize("bias_resistance", [0.1, 0.15, 0.2, 0.6])
def test_probe_matches_nonlinear_oracle(bias_resistance):
    # The tangent probe against as many nonlinear full-grid steps from the
    # lifted state plus a 1e-9 I_c perturbation along the probe's start, the
    # comb's: 0.15 ohm reads 0.9918 and passes, as 300 steps of power
    # iteration do (0.9925); the seeded start read 1.02 there and masked it.
    row, bias, stim = _probe_case(bias_resistance)
    state = iterate(row, bias, stim)
    assert state.lattice.unit == 4087 and state.residual < 1e-12
    oracle = _probe_oracle(row, state)
    assert abs(state.off_lattice_growth - oracle) <= 1e-5
    rate = power_iteration_growth(row, state, zero_pad=state.probe_zero_pad)
    assert abs(state.off_lattice_growth - rate) <= 1e-3
    assert state.converged == (oracle < 1.0) == (rate < 1.0) == (bias_resistance < 0.2)


@pytest.mark.parametrize("bias_resistance", [0.1, 0.15, 0.2, 0.6])
def test_embedded_probe_matches_nonlinear_oracle(bias_resistance):
    # A stride-1 tone (bin 4501, coprime with 12261) runs embedded, so the
    # probe perturbs every grid bin its lattice does not cover.
    row, bias, stim = _probe_case(bias_resistance, f_s=4.501e9)
    state = iterate(row, bias, stim)
    assert state.lattice.unit == 1 and state.lattice.alpha > 0 and state.residual < 1e-12
    oracle = _probe_oracle(row, state)
    assert abs(state.off_lattice_growth - oracle) <= 1e-5
    assert state.converged == (oracle < 1.0) == (bias_resistance < 0.15)


def _diagonal(d):
    """A test tangent that multiplies each bin by its entry of `d`."""

    def step(x, out):
        return np.multiply(d, x, out=out)

    return step


def test_carried_eigenvector_stops_after_two_steps():
    # On the off bins the dominant eigenvalue is 0.9 exp(0.7i).  A carried
    # start on its eigenvector, plus weight on lattice bins that the mask
    # drops, reads its modulus on the second step.
    n = 16
    off = np.arange(n) % 4 != 0
    d = np.where(off, 0.3, 5.0).astype(complex)
    d[5] = 0.9 * np.exp(0.7j)
    start = np.where(off, 0.0, 3.0).astype(complex)
    start[5] = 2.0 - 1.0j
    growth, steps, vector, _ = _off_lattice_growth(_diagonal(d), off, _off_start(start, off))
    assert steps == 2
    assert growth == pytest.approx(0.9, rel=1e-12)
    assert np.flatnonzero(vector).tolist() == [5]


@pytest.mark.parametrize("weight", ["lattice_only", "zero", "nan"])
def test_carried_vector_without_off_lattice_weight_takes_seeded_path(weight):
    n = 16
    off = np.arange(n) % 4 != 0
    d = [1.0, 1j] @ np.random.default_rng(3).standard_normal((2, n))
    start = {
        "lattice_only": np.where(off, 0.0, 1.0 + 2.0j),
        "zero": np.zeros(n, dtype=complex),
        "nan": np.full(n, np.nan, dtype=complex),
    }[weight]
    carried = _off_lattice_growth(_diagonal(d), off, _off_start(start, off))
    seeded = _off_lattice_growth(_diagonal(d), off)
    assert carried[1] == seeded[1] == PROBE_STEPS
    assert carried[0] == seeded[0]
    assert np.array_equal(carried[2], seeded[2])


def test_probe_that_never_agrees_stops_at_probe_steps():
    # Bins 1 and 2 trade places through factors 2 and 0.5, so the ratios
    # alternate 2, 0.5, 2, ... and no two successive ones agree.  The last
    # ratio would read 2 or 0.5 by the parity of PROBE_STEPS; the mean growth
    # over the second half of the steps reads the swap's spectral radius, 1.
    def swap(x, out):
        out[:] = 0.0
        out[2], out[1] = 2.0 * x[1], 0.5 * x[2]
        return out

    off = np.array([False, True, True, False])
    start = _off_start(np.array([0.0, 1.0, 0.0, 0.0]), off)
    growth, steps, _, _ = _off_lattice_growth(swap, off, start)
    assert steps == PROBE_STEPS
    assert growth == pytest.approx(1.0)


def test_probe_carries_its_vector_along_a_chain():
    # A probe's first solve starts from the comb, as a lone solve's does (its
    # lattice, of unit 4087, is a stride lattice); the solves after it start
    # from the vector the last probe left, whatever their lattice (bins 4087,
    # 4086 and 4088 against pump bin 12261: strides 4087, 3 and 1), and stop
    # early from the third point on.
    row, bias, stim = _probe_case(0.1)
    cold = iterate(row, bias, stim)
    chain, warm, states = Chain(row, bias, SolverOptions()), None, []
    for f_s in (4.087e9, 4.086e9, 4.088e9, 4.089e9):
        state = iterate(row, bias, Stimulus.single(f_s, -140.0), initial=warm, chain=chain)
        warm = state.i_j
        states.append(state)
    assert states[0].probe_steps == cold.probe_steps
    assert states[0].off_lattice_growth == cold.off_lattice_growth
    assert [state.lattice.alpha > 0 for state in states] == [False, True, True, True]
    assert all(state.converged for state in states)
    assert all(2 <= state.probe_steps < PROBE_STEPS for state in states[2:])
    for state in (states[0], states[-1]):
        rate = power_iteration_growth(row, state, zero_pad=state.probe_zero_pad)
        assert abs(state.off_lattice_growth - rate) <= 1e-3
    pump_only = iterate(row, bias, Stimulus.none(), chain=chain)
    assert pump_only.probe_steps == 0 and np.isnan(pump_only.off_lattice_growth)


@pytest.mark.parametrize("interleaved", [False, True], ids=["single", "interleaved"])
@pytest.mark.parametrize("relaxation", [1.0, 0.5])
def test_tangent_step_matches_central_difference(monkeypatch, interleaved, relaxation):
    # The tangent T at x against the central difference (update(x + eps d) -
    # update(x - eps d)) / 2 eps of one update of the oracle loop at the same
    # zero_pad; the difference falls as eps**2 (2e-8 at eps 1e-4, 2e-10 at
    # 1e-5).  At relaxation r the damped update's tangent is (1 - r) + r T,
    # with multipliers 1 - r + r lambda; the step and T are the plain map's.
    monkeypatch.setattr("ictasim.solver._interleaved", lambda _: interleaved)
    n, m, eps = 64, 21, 1e-5
    rng = np.random.default_rng(7)
    f_jj, drive, x, d = ([1.0, 1j] @ rng.standard_normal((2, n)) for _ in range(4))
    f_jj, drive, x, d = 0.05 * f_jj, 1e-9 * drive, 0.1 * I_C * x, 0.1 * I_C * d
    bias = BiasPoint(f_dc=m * 1e6, i_c=I_C)
    frequencies = 1e6 * np.arange(n)
    trip = _round_trip(frequencies, m, bias, 2)
    step = _picard_step(f_jj, drive, trip)
    tangent = _tangent_step(f_jj, drive + f_jj * x, trip)
    image = (1 - relaxation) * d + relaxation * tangent(d, np.empty(n, dtype=complex))
    forward, backward = (picard_loop(step, x + sign * eps * d, 0.0, 1, relaxation)[0]
                         for sign in (1, -1))
    difference = (forward - backward) / (2 * eps)
    assert np.max(np.abs(difference - image)) <= 1e-7 * np.max(np.abs(image))


def test_tangent_zero_pad_two_matches_zero_pad_four(default_f):
    # On a profile state the two differ only by the aliasing of c(t) = cos(ramp
    # + phase) on the 4N-sample grid: its sixth pump harmonic, 1.5e-5 at bin
    # 72000 > 2N, folds back.  Measured: 5.1e-7 relative on the image, 8.6e-10
    # on the probe's ratio; at zero_pad 1, where products alias, 6e-2.
    row = junction_row(default_f)
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    state = iterate(row, bias, Stimulus.single(5.12e9, -140.0))
    n, m = DEFAULT_GRID.size, int(round(F_DC / DEFAULT_GRID.spacing))
    off = np.arange(n) % state.lattice.unit != 0
    re, im = np.random.default_rng(PROBE_SEED).standard_normal((2, n))
    delta = np.where(off, re + 1j * im, 0.0)
    images = []
    for zero_pad in (2, 4):
        trip = _round_trip(DEFAULT_GRID.frequencies, m, bias, zero_pad)
        tangent = _tangent_step(row.f_jj, state.v_j, trip)
        images.append(tangent(delta, np.empty(n, dtype=complex))[off])
    error = np.sqrt(np.sum(np.abs(images[0] - images[1]) ** 2))
    assert error <= 2e-6 * np.sqrt(np.sum(np.abs(images[1]) ** 2))


def test_probe_runs_at_zero_pad_2_under_a_zero_pad_1_solve(canonical_f):
    # At zero_pad 1 the tangent's products alias; on a grid below SPLIT_BINS
    # the probe runs the zero_pad 2 coset step whatever the solve's zero_pad,
    # with no check (fold NaN), and reads its ratio bit for bit from the same
    # start.
    row = junction_row(canonical_f)
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    options = SolverOptions(zero_pad=1)
    state = iterate(row, bias, Stimulus.single(6.4e9, -140.0), options)
    grid, m = canonical_f.grid, int(round(F_DC / canonical_f.grid.spacing))
    assert grid.size < SPLIT_BINS and state.lattice.unit == 50 and state.converged
    off = ~state.lattice.covered
    start = Chain(row, bias, options).probe_start(50)
    cosets = _Cosets(row.f_jj, grid.frequencies, m, 50)
    ratios = [
        _off_lattice_growth(
            cosets.tangent(state.v_j[::50], bias, bool(off[::50].any()), zero_pad),
            off, _off_start(start, off),
        )[0]
        for zero_pad in (2, 1)
    ]
    assert state.probe_zero_pad == 2 and math.isnan(state.probe_fold)
    assert state.off_lattice_growth == ratios[0] != ratios[1]


@pytest.mark.parametrize(
    "response, f_s, stride, alpha",
    [("default_f", 5.025e9, 75, 0), ("default_f", 5.12e9, 160, 0),
     ("default_f", 6.024e9, 24, 17), ("map_f", 4.5e9, 75, 0)],
    ids=["odd", "even", "embedded", "map-grid"],
)
def test_coset_probe_matches_full_grid_tangent(request, response, f_s, stride, alpha):
    # The probe's coset step against the full-grid tangent at zero_pad 2,
    # step by step from the probe's start (the comb's on a stride lattice,
    # the seeded one on an embedded lattice): the growth ratios agree to 1e-6
    # relative (measured 1.1e-9 to 1.4e-9 on DEFAULT_GRID, 6e-12 on the map
    # grid, whose steps run the single transform).  The state's reading is
    # the probe's at the zero_pad it records.  By coset and on the full grid
    # (a unit-1 lattice, same bins off), the zero_pad 1 step runs on the even
    # samples of the zero_pad 2 grid, bit for bit, and is the probe's step;
    # with the odd step (the samples between) its mean is the zero_pad 2
    # step to rounding (measured 4e-16 relative).
    response = request.getfixturevalue(response)
    grid = response.grid
    row = junction_row(response)
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    state = iterate(row, bias, Stimulus.single(f_s, -140.0))
    lattice, n, m = state.lattice, grid.size, int(round(F_DC / grid.spacing))
    assert lattice.unit == stride and lattice.alpha == alpha
    off = ~lattice.covered
    assert off[::stride].any() == (alpha > 0)
    chain = Chain(row, bias, SolverOptions(zero_pad=2))
    coset = chain.tangent(lattice, state.v_j, off, 2)
    assert coset.__qualname__.startswith("_Cosets.tangent")
    full = _tangent_step(row.f_jj, state.v_j, _round_trip(grid.frequencies, m, bias, 2))
    if alpha:
        re, im = np.random.default_rng(PROBE_SEED).standard_normal((2, n))
        start = np.where(off, re + 1j * im, 0.0)
    else:
        start = np.where(off, Chain(row, bias, SolverOptions()).probe_start(stride), 0.0)
    ratios = []
    for step in (coset, full, chain.tangent(lattice, state.v_j, off)):
        x, row_ratios = start / np.sqrt(np.sum(np.abs(start) ** 2)), []
        for _ in range(PROBE_STEPS):
            x = step(x, np.empty(n, dtype=complex))
            row_ratios.append(np.sqrt(np.sum(np.abs(x[off]) ** 2)))
            x /= row_ratios[-1]
        ratios.append(row_ratios)
    assert_allclose(ratios[0], ratios[1], rtol=1e-6, atol=0)
    assert state.probe_steps == (PROBE_STEPS if alpha else 2)
    reading = ratios[0 if state.probe_zero_pad == 2 else 2][state.probe_steps - 1]
    assert reading == pytest.approx(state.off_lattice_growth, rel=1e-12)
    _assert_checked(row, state, None if alpha else start)
    delta = start / np.sqrt(np.sum(np.abs(start) ** 2))
    for unit in (stride, 1):
        probed = lattice if unit == stride else Lattice.stride(grid, m, 1)
        even, odd, double = (
            chain.tangent(probed, state.v_j, off, zero_pad, half)(delta, np.empty(n, dtype=complex))
            for zero_pad, half in ((1, False), (1, True), (2, False))
        )
        if unit == 1:
            trips = [_round_trip(grid.frequencies, m, bias, zero_pad) for zero_pad in (1, 2)]
            ramps = [trip[0] for trip in trips]
            alone = _tangent_step(row.f_jj, state.v_j, trips[0])
        else:
            cosets = _Cosets(row.f_jj, grid.frequencies, m, stride)
            ramps = [cosets.samples(zero_pad)[1] for zero_pad in (1, 2)]
            alone = cosets.tangent(state.v_j[::stride], bias, bool(off[::stride].any()), 1)
        assert np.array_equal(ramps[1][::2], ramps[0])
        assert np.array_equal(even, alone(delta, np.empty(n, dtype=complex)))
        assert np.max(np.abs((even + odd) / 2 - double)) <= 1e-14 * np.max(np.abs(double))


@pytest.mark.parametrize("f_s, stride", [(6.48e9, 15), (5.12e9, 10)], ids=["odd", "even"])
def test_coset_tangent_matches_coset_blocks(canonical_f, f_s, stride):
    # The batched coset step, coset 0 included, against the dense blocks of
    # every coset (`_coset_blocks`) applied to the same vector, with c(t)'s
    # spectrum taken on the same L samples from a direct sum over the
    # state's harmonics.  At even s the coset r = s / 2 is its own mirror.
    grid = canonical_f.grid
    row = junction_row(canonical_f)
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    state = iterate(row, bias, Stimulus.single(f_s, -140.0))
    n, m = grid.size, int(round(F_DC / grid.spacing))
    assert state.lattice.unit == stride and state.lattice.alpha == 0
    cosets = _Cosets(row.f_jj, grid.frequencies, m, stride)
    size, width = cosets.samples(2)[0], cosets.width
    assert size >= 4 * width
    harmonics = np.arange(1, width)
    omega = 2 * np.pi * grid.frequencies[stride::stride]
    g = (2 * E_CHARGE / HBAR) * state.v_j[stride::stride] / (1j * omega)
    u = np.arange(size) / size
    phase = 2.0 * np.real(np.exp(2j * np.pi * np.outer(u, harmonics)) @ g)
    c = I_C * np.cos(2 * np.pi * (m // stride) * u + phase)
    bins, weight = _coset_layout(row.f_jj, grid.frequencies, stride)
    blocks = _coset_blocks(
        _harmonics(np.fft.fft(c) / size, width), bins, weight, n, np.arange(stride)
    )
    delta = [1.0, 1j] @ np.random.default_rng(11).standard_normal((2, n))
    plus, minus = bins, bins[-np.arange(stride) % stride]
    z = np.concatenate(
        [np.where(plus < n, delta[np.minimum(plus, n - 1)], 0.0),
         np.conjugate(np.where(minus < n, delta[np.minimum(minus, n - 1)], 0.0))],
        axis=1,
    )
    images = np.einsum("rij,rj->ri", blocks, z)[:, :width]
    expected = np.zeros(n, dtype=complex)
    expected[plus[plus < n]] = images[plus < n]
    step = cosets.tangent(state.v_j[::stride], bias, True, 2)
    image = step(delta, np.empty(n, dtype=complex))
    assert np.max(np.abs(image - expected)) <= 1e-12 * np.max(np.abs(expected))
    # Without coset 0, a delta that is 0 on the multiples of s keeps them 0
    # and takes the same image elsewhere.
    delta[::stride] = 0.0
    image = step(delta, np.empty(n, dtype=complex))
    bare = cosets.tangent(state.v_j[::stride], bias, False, 2)(delta, image.copy())
    assert np.all(bare[::stride] == 0.0)
    assert np.array_equal(np.delete(bare, np.s_[::stride]), np.delete(image, np.s_[::stride]))


@pytest.mark.parametrize(
    "grid, f_s, stride",
    [("default", 5.12e9, 160), ("default", 5.6e9, 800), ("coarse", 6.48e9, 15),
     ("coarse", 5.12e9, 10)],
)
def test_coset_step_in_place_equals_two_buffers(default_f, canonical_f, grid, f_s, stride):
    # The coset step on one in-place transform buffer, its image written
    # back over delta's padded copy, against separate buffers, bit for bit
    # over three chained steps, with coset 0 on and off.  delta has weight
    # on coset 0 even where the step skips it, whose image there stays 0.
    f = default_f if grid == "default" else canonical_f
    row, bias = junction_row(f), BiasPoint(f_dc=F_DC, i_c=I_C)
    state = iterate(row, bias, Stimulus.single(f_s, -140.0))
    assert state.lattice.unit == stride and state.lattice.alpha == 0
    n, m = f.grid.size, round(F_DC / f.grid.spacing)
    cosets = _Cosets(row.f_jj, f.grid.frequencies, m, stride)
    voltage = state.v_j[::stride]
    for coset0 in (True, False):
        steps = (cosets.tangent(voltage, bias, coset0, PROBE_ZERO_PAD),
                 coset_tangent_two_buffers(cosets, voltage, bias, coset0, PROBE_ZERO_PAD))
        x = [1.0, 1j] @ np.random.default_rng(stride).standard_normal((2, n))
        pair = [x, x.copy()]
        for _ in range(3):
            pair = [step(v, np.empty(n, dtype=complex)) for step, v in zip(steps, pair)]
            assert np.array_equal(pair[0].view(np.int64), pair[1].view(np.int64))
            if not coset0:
                assert not pair[0][::stride].any()


def test_probe_holds_each_array_once(default_f):
    # Traced peak of a chain's first probe on DEFAULT_GRID at s = 160 (the
    # comb solved before): its start and a copy of it, the coset tables and
    # two steps at zero_pad 1, the odd step, and the same again at zero_pad
    # 2, where the reading lies within PROBE_FOLD_MARGIN folds of 1.  3.9 MB
    # measured (also when the probe ran at zero_pad 2 alone); 5.9 MB with two
    # transform buffers, a separate image, the whole coset layout's weights
    # and a masked copy at every norm.
    row, bias, options = junction_row(default_f), BiasPoint(f_dc=F_DC, i_c=I_C), SolverOptions()
    state = iterate(row, bias, Stimulus.single(5.12e9, -140.0))
    assert state.lattice.unit == 160 and state.probe_steps == 2
    chain = Chain(row, bias, options)
    chain.solve()
    off = ~state.lattice.covered
    tracemalloc.start()
    try:
        growth, steps, fold, zero_pad = chain.probe(state.lattice, state.v_j, off)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (growth, steps) == (state.off_lattice_growth, state.probe_steps)
    assert (fold, zero_pad) == (state.probe_fold, state.probe_zero_pad)
    assert peak < 4.5e6


def test_fast_len_and_constants_match_scipy():
    assert all(_fast_len(n) == next_fast_len(n, real=True) for n in range(1, 200_001))
    assert (_E_CHARGE, _PLANCK, _HBAR) == (E_CHARGE, PLANCK, HBAR)


def test_solve_point_leaves_no_reference_cycles():
    # A probed sub-lattice point and its outputs leave nothing for the cyclic
    # collector: buffers held by a cycle would live on until it runs.
    grid = FrequencyGrid(spacing=20e6, size=2048)
    f = frankenstein_matrix(build_icta(IctaParams()), grid)
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    stim = Stimulus.single(6.4e9, -140.0)

    def point():
        state = outputs(iterate(junction_row(f), bias, stim))
        return state, gain(state, 6.4e9), power_balance(state)

    point()  # builds and caches F's rows
    gc.collect()
    gc.disable()
    try:
        state = point()[0]
        found = gc.collect()
    finally:
        gc.enable()
    assert state.lattice.unit == 40 and state.converged and 0.0 < state.off_lattice_growth < 1.0
    assert found == 0


# ---------------------------------------------------------------- time grid layouts


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 64, 255])
@pytest.mark.parametrize("zero_pad", [1, 2, 3, 4])
@pytest.mark.parametrize("relaxation", [1.0, 0.5])
@pytest.mark.parametrize("stride", [1, 7])
def test_interleaved_step_matches_single_transform(monkeypatch, n, zero_pad, relaxation, stride):
    # One update of the oracle loop at relaxation r (`picard_loop`, one step)
    # in each layout on the same inputs: n bins spaced stride MHz, the pump on
    # bin n // 3, and voltages that swing the junction phase by about a
    # radian.
    rng = np.random.default_rng(100 * n + zero_pad)
    f_jj, drive, current = ([1.0, 1j] @ rng.standard_normal((2, n)) for _ in range(3))
    current[0] = current[0].real
    m = max(1, n // 3)
    bias = BiasPoint(f_dc=m * stride * 1e6, i_c=I_C)
    frequencies = stride * 1e6 * np.arange(n)
    updated = {}
    for interleaved in (False, True):
        monkeypatch.setattr("ictasim.solver._interleaved", lambda _, chosen=interleaved: chosen)
        trip = _round_trip(frequencies, m, bias, zero_pad)
        step = _picard_step(0.05 * f_jj, 1e-9 * drive, trip)
        updated[interleaved] = picard_loop(step, 0.1 * I_C * current, 0.0, 1, relaxation)[0]
    assert_allclose(updated[True], updated[False], rtol=0, atol=1e-15 * I_C)


def test_layout_follows_lattice_size(monkeypatch, no_chord, default_f):
    # A full-grid DEFAULT_GRID step runs 8 interleaved phases in one batched
    # transform; a stride-160 lattice of it and the 2048-bin map grid run
    # one transform of the whole padded time grid.  (No chord, so no comb
    # solve adds its transforms.)
    shapes = []
    irfft = np.fft.irfft

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return irfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", spy)
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    stim = Stimulus.single(5.12e9, -140.0)
    one_step = SolverOptions(max_iterations=1)
    row = junction_row(default_f)
    plain_iterate(row, bias, stim, one_step)
    assert iterate(row, bias, stim, one_step).lattice.unit == 160
    map_grid = FrequencyGrid(spacing=20e6, size=2048)
    map_row = junction_row(frankenstein_matrix(build_icta(IctaParams()), map_grid))
    plain_iterate(map_row, bias, Stimulus.none(), one_step)
    assert shapes == [(8, DEFAULT_GRID.size // 2 + 1), (4 * 205 + 1,), (4 * 2048 + 1,)]


# ---------------------------------------------------------------- comb chord

MAP_GRID = FrequencyGrid(20e6, 2048)


@pytest.fixture(scope="module")
def map_row():
    return junction_row(frankenstein_matrix(build_icta(IctaParams()), MAP_GRID))


def _c_spectrum(voltage, bias, trip):
    """The spectrum of i_c * c(t) on the time grid of `trip`,
    the `_round_trip` of the lattice junction voltage `voltage` lies on."""
    c = _cos_phase(voltage, trip)
    # Time order: the interleaved layout holds sample t = phases * q + r at [r, q].
    return np.fft.fft(c.T.ravel()) * (bias.i_c / c.size)


def _comb_tangent(row):
    # Pump bin 640 (12.8 GHz) at 200 nA on the stride-16 lattice: p = 40,
    # 128 bins, n_t = 1024, which 40 does not divide, so c(t)'s aliasing can
    # reach across cosets.  Returns the chord, the signed positions of each
    # coset block, the blocks from the comb's harmonics, the blocks gathered
    # from c's spectrum on the lattice's own time grid, and the dense
    # tangent at the comb state as delta -> A delta + B conj(delta).
    bias = BiasPoint(f_dc=12.8e9, i_c=200e-9)
    options = SolverOptions()
    lattice = Lattice.stride(MAP_GRID, 640, 16)
    n, p = lattice.size, lattice.pump
    chain = Chain(row, bias, options)
    chord = chain.chord(lattice)
    current, *_ = chain.solve()
    f_jj = lattice.gather(row.f_jj)
    voltage = f_jj * lattice.gather(Lattice.stride(MAP_GRID, 640, 640).lift(current))
    bins, weight = _coset_layout(f_jj, lattice.frequencies, p)
    members = np.concatenate([bins, -bins[-np.arange(p) % p]], axis=1)
    blocks = _coset_blocks(chain._harmonics, bins, weight, n, np.arange(p))
    trip = _round_trip(lattice.frequencies, p, bias, options.zero_pad)
    spectrum = _c_spectrum(voltage, bias, trip)
    _, own = gathered_coset_blocks(f_jj, lattice.frequencies, p, spectrum)
    tangent = _tangent_step(f_jj, voltage, trip)
    a, b = np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
    for q in range(n):
        unit = np.zeros(n, dtype=complex)
        unit[q] = 1.0
        real = tangent(unit, np.empty(n, dtype=complex))
        imag = tangent(1j * unit, np.empty(n, dtype=complex))
        a[:, q], b[:, q] = (real - 1j * imag) / 2, (real + 1j * imag) / 2
    return chord, members, blocks, own, a, b, tangent


@pytest.mark.parametrize("interleaved", [False, True], ids=["single", "interleaved"])
def test_coset_blocks_match_dense_tangent(monkeypatch, map_row, interleaved):
    # Every block entry is the dense tangent's entry to rounding (1e-12 of
    # the largest); outside the coset pairs the dense tangent holds only c's
    # aliasing, below the same bound at zero_pad 4.  The blocks from the
    # comb's own samples are those from the lattice's time grid to 1e-14.
    monkeypatch.setattr("ictasim.solver._interleaved", lambda _: interleaved)
    _, members, blocks, own, a, b, _ = _comb_tangent(map_row)
    assert np.abs(blocks - own).max() <= 1e-14 * np.abs(own).max()
    p, width = blocks.shape[0], blocks.shape[1] // 2
    n = a.shape[0]
    scale = max(np.abs(a).max(), np.abs(b).max())
    sign = np.repeat([1, -1], width)
    for r in range(p):
        for i in range(2 * width):
            for j in range(2 * width):
                qi, qj = abs(members[r, i]), abs(members[r, j])
                if qi >= n or qj >= n:
                    assert blocks[r, i, j] == 0.0
                    continue
                dense = (a if sign[i] == sign[j] else b)[qi, qj]
                dense = dense if sign[i] > 0 else np.conjugate(dense)
                assert abs(blocks[r, i, j] - dense) <= 1e-12 * scale
    q = np.arange(n)
    same, opposite = (q[:, None] - q) % p == 0, (q[:, None] + q) % p == 0
    assert np.abs(a[~same]).max() <= 1e-12 * scale
    assert np.abs(b[~opposite]).max() <= 1e-12 * scale


def test_coset_block_eigenvalues_and_inverse(map_row):
    # The blocks' eigenvalues are the dense real tangent's (to 1e-9, each
    # way), the chord's multiplier is its spectral radius, and the chord
    # inverts I - J on random vectors to 1e-10 relative.
    chord, _, blocks, _, a, b, tangent = _comb_tangent(map_row)
    dense = np.block([[(a + b).real, -(a - b).imag], [(a + b).imag, (a - b).real]])
    exact = np.linalg.eigvals(dense)
    blockwise = np.linalg.eigvals(blocks).ravel()
    assert np.abs(exact[:, None] - blockwise).min(axis=1).max() <= 1e-9
    real_blocks = np.abs(blockwise) > 1e-12  # the padding reads 0
    assert np.abs(blockwise[real_blocks, None] - exact).min(axis=1).max() <= 1e-9
    assert chord.multiplier == pytest.approx(np.abs(exact).max(), abs=1e-9)
    assert 0.5 < chord.multiplier < 1.0
    n = a.shape[0]
    rng = np.random.default_rng(11)
    for _ in range(3):
        v = [1.0, 1j] @ rng.standard_normal((2, n))
        x = np.zeros(n, dtype=complex)
        chord.apply(v - tangent(v, np.empty(n, dtype=complex)), x)
        assert np.abs(x - v).max() <= 1e-10 * np.abs(v).max()
    # On the affine map x -> J x + b the chord's loop lands on the fixed
    # point in one update and stops on the next step; it gives up, ending
    # at None, when the budget runs out first or a change is non-finite.
    b = [1.0, 1j] @ rng.standard_normal((2, n))

    def affine(x, out):
        tangent(x, out)
        return np.add(out, b, out=out)

    def blown(x, out):
        out.fill(np.nan)
        return out

    start, options = np.zeros(n, dtype=complex), SolverOptions()
    end, count, converged, _ = _fixed_point(affine, start, 1e-9, options, chord)
    assert converged and count == 2
    assert np.abs(end - affine(end, np.empty(n, dtype=complex))).max() < 1e-9
    for step, budget in ((affine, 1), (blown, 10)):
        end, count, converged, delta = _fixed_point(
            step, start, 1e-9, replace(options, max_iterations=budget), chord
        )
        assert end is None and count == 1 and not converged
        assert np.isfinite(delta) == (step is affine)


def test_unstable_comb_leaves_the_point_to_picard(monkeypatch, map_row):
    # At 250 nA the comb of pump bin 448 has a multiplier of 1.017 on the
    # stride-16 lattice of signal bin 176, and plain Picard does not settle
    # in 2500 steps.  No chord runs; forced past that rule, the chord
    # converges onto the unstable state, its on-lattice check reads the
    # growth, and plain Picard decides as before, bit for bit.
    bias = BiasPoint(f_dc=8.96e9, i_c=250e-9)
    stim = Stimulus.single(3.52e9, -140.0)
    options = SolverOptions(max_iterations=2500)
    state = iterate(map_row, bias, stim, options)
    oracle = plain_iterate(map_row, bias, stim, options)
    assert state.lattice.unit == 16 and state.path == "picard"
    assert not state.converged and not oracle.converged

    def capped(cls, blocks, n):
        return cls(blocks, n, np.minimum(np.abs(np.linalg.eigvals(blocks)), 0.999))

    monkeypatch.setattr(_Chord, "of", classmethod(capped))
    forced = iterate(map_row, bias, stim, options)
    assert forced.path == "fallback" and forced.on_lattice_growth >= 1.0
    assert not forced.converged
    assert np.array_equal(forced.i_j, state.i_j)
    assert forced.iterations > state.iterations  # the chord's steps count too


def test_chord_point_reports_its_check(map_row):
    # The slowest row of the benchmark map (8.32 GHz at 200 nA, where the
    # comb's multiplier is 0.90): the chord converges in a few steps where
    # plain Picard takes over a hundred, its check reads the on-lattice
    # growth below 1, and the gain is plain Picard's to 1e-7 dB.
    bias = BiasPoint(f_dc=8.32e9, i_c=200e-9)
    stim = Stimulus.single(3.52e9, -140.0)
    options = SolverOptions(max_iterations=2500)
    state = iterate(map_row, bias, stim, options)
    oracle = plain_iterate(map_row, bias, stim, options)
    assert state.lattice.unit == 16 and state.path == "chord" and state.converged
    assert state.iterations < oracle.iterations / 5
    assert 0.0 < state.on_lattice_growth < 1.0 and 2 <= state.on_lattice_steps <= PROBE_STEPS
    assert state.residual < 1e-12
    assert abs(gain(outputs(state), 3.52e9) - gain(outputs(oracle), 3.52e9)) <= 1e-7


@pytest.mark.parametrize(
    "grid, f_dc, i_c, f_s",
    [
        ("map", 8.32e9, 200e-9, 3.52e9),
        ("map", 8.32e9, 200e-9, 5.12e9),
        ("map", 12.8e9, 200e-9, 6.4e9),
        ("coarse", 12e9, 280e-9, 4.0e9),
        ("coarse", 12e9, 300e-9, 6.4e9),
    ],
)
def test_first_probe_from_the_comb_reads_the_rate(map_row, canonical_f, grid, f_dc, i_c, f_s):
    # A lone solve on a stride lattice starts its probe from the comb's
    # dominant off-lattice modes, and reads the rate of 300 steps of power
    # iteration within 1e-3 in 2 steps (the seeded start read 0.74 to 0.94
    # in 8 steps where the rates are 0.66 to 1.03).
    row = map_row if grid == "map" else junction_row(canonical_f)
    options = SolverOptions(max_iterations=3000)
    state = iterate(row, BiasPoint(f_dc=f_dc, i_c=i_c), Stimulus.single(f_s, -140.0), options)
    assert state.lattice.alpha == 0 and state.lattice.unit > 1 and state.probe_steps == 2
    _assert_checked(row, state, _lone_start(row, state))
    rate = power_iteration_growth(row, state, zero_pad=state.probe_zero_pad)
    assert abs(state.off_lattice_growth - rate) <= 1e-3
    assert state.converged == (rate < 1.0)


@pytest.mark.parametrize(
    "grid, f_dc, i_c, s",
    [
        ("default", 12e9, 280e-9, 160),  # the benchmark profile's lattice
        ("default", 12e9, 280e-9, 800),  # and its compression's
        ("map", 8.32e9, 200e-9, 16),
    ],
)
def test_probe_start_equals_list_of_modes(default_f, map_row, grid, f_dc, i_c, s):
    # One grid-sized mode at a time, from one eig per leading block, adds
    # up to the start built from every mode held at once, bit for bit.
    row = map_row if grid == "map" else junction_row(default_f)
    bias, options = BiasPoint(f_dc=f_dc, i_c=i_c), SolverOptions(max_iterations=3000)
    start = Chain(row, bias, options).probe_start(s)
    assert start is not None
    assert np.array_equal(start, probe_start_modes(Chain(row, bias, options), s))


@pytest.mark.parametrize(
    "grid, i_c, s",
    [
        ("default", 280e-9, 160),  # the benchmark profile's lattice
        ("coarse", 300e-9, 250),  # near threshold
        ("coarse", 280e-9, 10),  # 5 classes, fewer than PROBE_COSETS
    ],
)
def test_probe_start_cosets_match_unique(monkeypatch, default_f, canonical_f, grid, i_c, s):
    # The start's leading blocks come from the first block of each class
    # +-r (mod s) in the ranking, in ranked order, as np.unique's first
    # indices choose them.
    response = default_f if grid == "default" else canonical_f
    row, bias = junction_row(response), BiasPoint(f_dc=F_DC, i_c=i_c)
    options = SolverOptions(max_iterations=3000)
    expected = probe_cosets(Chain(row, bias, options), s)
    asked, blocks = [], Chain._grid_blocks

    def recording(self, layout, cosets):
        asked.append(cosets.copy())
        return blocks(self, layout, cosets)

    monkeypatch.setattr(Chain, "_grid_blocks", recording)
    assert Chain(row, bias, options).probe_start(s) is not None
    assert np.array_equal(asked[-1], expected)
    assert expected.size == min(PROBE_COSETS, s // 2)
    assert len({min(r % s, -r % s) for r in expected.tolist()}) == expected.size


def test_seeded_perturbation_is_the_probe_seed_draw():
    for n in (1, 7, DEFAULT_GRID.size):
        re, im = np.random.default_rng(PROBE_SEED).standard_normal((2, n))
        assert _seeded(n).tobytes() == (re + 1j * im).tobytes()


def test_probe_start_holds_one_mode_at_a_time(default_f):
    # Traced peak of one start on DEFAULT_GRID above entry: 3.7 MB measured;
    # eight grid-sized modes held at once (4.6 MB) read 6.6 MB.
    row, bias, options = junction_row(default_f), BiasPoint(f_dc=F_DC, i_c=I_C), SolverOptions()
    chain = Chain(row, bias, options)
    chain.solve()
    tracemalloc.start()
    try:
        start = chain.probe_start(160)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert start is not None and peak < 5e6


@pytest.mark.parametrize("f_dc", [12.8e9, 10.24e9])
@pytest.mark.parametrize("f_s", [4.8e9, 5.6e9])
def test_zero_power_gain_from_the_chord(map_row, f_dc, f_s):
    # The small-signal limit at a stable comb: delta x = P (T d), with P =
    # (I - J_comb)^-1 the chord's inverse, T the tangent with respect to the
    # junction voltage (f_jj -> 1) at the comb state and d the tone's
    # gathered drive; the gain is read from the comb state plus delta x.
    # Plain Picard over every grid bin approaches it as the input power
    # falls: the gap shrinks 10-fold per 10 dB (at 12.8 and 4.8 GHz it reads
    # -3.5336e-4, -3.5337e-5 and -3.5286e-6 dB at -140, -150 and -160 dBm).
    # At 3.2 GHz the gap, at most 2e-7 dB, sits at the solver's floor.
    bias, options = BiasPoint(f_dc=f_dc, i_c=200e-9), SolverOptions()
    m, k = round(f_dc / MAP_GRID.spacing), round(f_s / MAP_GRID.spacing)
    lattice = Lattice.stride(MAP_GRID, m, math.gcd(m, k))
    chain = Chain(map_row, bias, options)
    chord = chain.chord(lattice)
    assert chord is not None
    comb, *_ = chain.solve()
    x = lattice.gather(Lattice.stride(MAP_GRID, m, m).lift(comb))
    trip = _round_trip(lattice.frequencies, lattice.pump, bias, options.zero_pad)
    tangent = _tangent_step(np.ones(lattice.size, dtype=complex),
                            lattice.gather(map_row.f_jj) * x, trip)
    stim = Stimulus.single(f_s, -140.0)
    drive = tone_drive(map_row.response, stim)
    delta = np.zeros(lattice.size, dtype=complex)
    chord.apply(tangent(lattice.gather(drive), np.empty(lattice.size, dtype=complex)), delta)
    i_j = lattice.lift(x + delta)
    linear = SolutionState(
        bias=bias, stimulus=stim, response=map_row.response, zero_pad=options.zero_pad,
        i_j=i_j, v_j=drive + map_row.f_jj * i_j, iterations=0, converged=True,
        residual=0.0, lattice=lattice, tail=math.nan, off_lattice_growth=math.nan,
    )
    zero_power = gain(outputs(linear), f_s)
    gaps = []
    for power in (-140.0, -150.0, -160.0):
        state = plain_iterate(map_row, bias, Stimulus.single(f_s, power), options)
        assert state.converged
        gaps.append(gain(outputs(state), f_s) - zero_power)
    assert gaps[0] / gaps[1] == pytest.approx(10.0, rel=0.01)
    assert abs(gaps[2]) < 2e-5


# ---------------------------------------------------------------- proven comb

EMISSION_BIAS = BiasPoint(f_dc=12.261e9, i_c=100e-9)
EMISSION_M = 12261  # the pump bin of EMISSION_BIAS on DEFAULT_GRID


def _emission_row(**edit):
    return junction_row(frankenstein_matrix(build_icta(IctaParams(**edit)), DEFAULT_GRID))


@pytest.mark.parametrize("zero_pad, tolerance", [(4, 1e-14), (2, 1e-10)])
@pytest.mark.parametrize(
    "resistance, rate", [(0.05, 0.5099), (0.1, 0.7690), (0.15, 0.9925), (0.3, 1.5859)]
)
def test_comb_grid_blocks_match_full_grid(resistance, rate, zero_pad, tolerance):
    # The coset blocks r <= m / 2 of the tangent at the comb state on the
    # stride-1 lattice, from the comb's harmonics on its own 2 * zero_pad * 3
    # samples, are the full-grid blocks (8N or 4N samples) to 1e-14 relative
    # at zero_pad 4, and to 1e-10 at zero_pad 2, where the full grid's own
    # aliasing of c(t) shows (3e-11); their largest eigenvalue modulus is the
    # exact off-comb rate.  Only the rates below 1 within 64 steps are
    # proven.
    row, bias = _emission_row(bias_resistance=resistance), EMISSION_BIAS
    options = SolverOptions(zero_pad=zero_pad)
    chain = Chain(row, bias, options)
    current, _, converged, _ = chain.solve()
    assert converged
    f = DEFAULT_GRID.frequencies
    half = EMISSION_M // 2 + 1
    bins, weight = _coset_layout(row.f_jj, f, EMISSION_M)
    blocks = _coset_blocks(chain._harmonics, bins, weight, f.size, np.arange(half))
    # A slice of cosets, as the proof builds them, is the same slice.
    tail = _coset_blocks(chain._harmonics, bins, weight, f.size, np.arange(1000, half))
    assert np.array_equal(tail, blocks[1000:])
    lattice = Lattice.stride(DEFAULT_GRID, EMISSION_M, EMISSION_M)
    full = Lattice.stride(DEFAULT_GRID, EMISSION_M, 1)
    full_trip = _round_trip(full.frequencies, EMISSION_M, bias, options.zero_pad)
    full_spectrum = _c_spectrum(row.f_jj * lattice.lift(current), bias, full_trip)
    _, full_blocks = gathered_coset_blocks(row.f_jj, f, EMISSION_M, full_spectrum)
    scale = np.abs(full_blocks).max()
    assert np.abs(blocks - full_blocks[:half]).max() <= tolerance * scale
    assert np.abs(np.linalg.eigvals(blocks)).max() == pytest.approx(rate, abs=5e-5)
    assert chain.proven() == (rate < 0.9)


@pytest.mark.parametrize(
    "grid, f_dc, i_c, options",
    [
        (DEFAULT_GRID, 12e9, 280e-9, SolverOptions()),
        (DEFAULT_GRID, 12.261e9, 100e-9, SolverOptions()),
        (MAP_GRID, 12.8e9, 200e-9, SolverOptions()),
        (MAP_GRID, 8.32e9, 200e-9, SolverOptions()),
        (FrequencyGrid(16e6, 2048), 12e9, 280e-9, SolverOptions(zero_pad=2)),
    ],
    ids=["default-12", "default-12.261", "map-12.8", "map-8.32", "coarse-zero-pad-2"],
)
def test_shared_harmonic_blocks_equal_gathered_blocks(grid, f_dc, i_c, options):
    # Every coset block on the grid mod m, as the comb builds it (one shared
    # harmonic matrix times each coset's column weights), is bit for bit the
    # block gathered entry by entry from c's spectrum on the comb's samples.
    row = junction_row(frankenstein_matrix(build_icta(IctaParams()), grid))
    bias = BiasPoint(f_dc=f_dc, i_c=i_c)
    m = round(f_dc / grid.spacing)
    chain = Chain(row, bias, options)
    current, _, converged, _ = chain.solve()
    assert converged
    lattice = Lattice.stride(grid, m, m)
    trip = _round_trip(lattice.frequencies, 1, bias, max(options.zero_pad, 2))
    spectrum = _c_spectrum(lattice.gather(row.f_jj) * current, bias, trip)
    _, gathered = gathered_coset_blocks(row.f_jj, grid.frequencies, m, spectrum, m)
    bins, weight = _coset_layout(row.f_jj, grid.frequencies, m)
    blocks = _coset_blocks(chain._harmonics, bins, weight, grid.size, np.arange(m))
    assert np.array_equal(blocks, gathered)


def test_contracts_diagonal_blocks():
    # A diagonal block contracts exactly when every entry lies inside the
    # unit circle and 64 steps bring its Frobenius norm below 1.
    def diagonal(*values):
        return np.diag(np.array(values, dtype=complex))[None]

    assert _contracts(diagonal(0.5, 0.5j, -0.5, 0.1, 0.0, 0.5))  # one squaring
    assert _contracts(diagonal(0.95, 0.9j, 0.0))
    assert not _contracts(diagonal(1.0, 0.1))
    assert not _contracts(diagonal(0.2, 1.01j))
    assert not _contracts(diagonal(np.nan, 0.1))
    assert not _contracts(diagonal(np.inf, 0.1))
    # 0.999**64 = 0.94: stable, but not shown within PROOF_SQUARINGS.
    assert PROOF_SQUARINGS == 6 and not _contracts(diagonal(0.999, 0.999))
    stack = np.concatenate([diagonal(0.1, 0.2), diagonal(0.9, 0.3), diagonal(1.2, 0.0)])
    assert _contracts(stack[:2]) and not _contracts(stack)
    assert _contracts(np.zeros((0, 4, 4), dtype=complex))


def test_contracts_non_normal_blocks():
    # A Jordan-like block: its norm is far above 1 while its powers decay,
    # which the squarings show; with a rate of 0.9 and a coupling of 1e6,
    # M^64 still holds 64e6 * 0.9**63 = 8.4e4, so the proof fails although
    # the block is stable.  Overflow in the squarings fails too.
    jordan = np.array([[[0.5, 100.0], [0.0, 0.5j]]], dtype=complex)
    assert np.sum(np.abs(jordan) ** 2) > 1e4 and _contracts(jordan)
    assert not _contracts(np.array([[[0.9, 1e6], [0.0, 0.9]]], dtype=complex))
    with np.errstate(over="ignore", invalid="ignore"):  # as inside `iterate`
        assert not _contracts(np.array([[[1.0, 1e300], [1e300, 1.0]]], dtype=complex))
    rotation = np.array([[[0.0, -1.0], [1.0, 0.0]]], dtype=complex)
    assert not _contracts(rotation) and _contracts(0.9 * rotation)


@pytest.mark.parametrize(
    "edit, i_c",
    [
        ({"bias_resistance": 0.05}, 100e-9),
        ({"bias_resistance": 0.1}, 100e-9),
        ({"cable_length": 0.33}, 180e-9),
        ({"junction_capacitance": 20e-15}, 140e-9),
    ],
    ids=["0.05-ohm", "0.1-ohm", "cable", "capacitance"],
)
def test_proven_comb_matches_full_grid(edit, i_c):
    # A pump-only solve whose comb blocks are proven stable ends on the comb
    # with plain Picard's flag and state to 1e-14 i_c, no probe, and zeros
    # off the comb.
    row, bias = _emission_row(**edit), replace(EMISSION_BIAS, i_c=i_c)
    state = iterate(row, bias, Stimulus.none())
    oracle = plain_iterate(row, bias, Stimulus.none(), SolverOptions())
    assert state.path == "comb" and state.lattice.unit == EMISSION_M
    assert state.converged and oracle.converged
    assert np.isnan(state.off_lattice_growth) and state.probe_steps == 0
    assert np.all(state.i_j[np.arange(DEFAULT_GRID.size) % EMISSION_M != 0] == 0.0)
    assert_allclose(state.i_j, oracle.i_j, rtol=0, atol=1e-14 * i_c)


@pytest.mark.parametrize("resistance", [0.15, 0.3])
def test_unproven_comb_leaves_the_solve_to_the_full_grid(resistance):
    # At 0.15 ohm (rate 0.9925) 64 steps show no contraction, and at 0.3 ohm
    # (1.59) the comb is unstable off its bins: the stride-1 lattice decides
    # from the same cold start, bit for bit as the plain loop, and the comb's
    # steps are not counted.
    row = _emission_row(bias_resistance=resistance)
    state = iterate(row, EMISSION_BIAS, Stimulus.none())
    oracle = plain_iterate(row, EMISSION_BIAS, Stimulus.none(), SolverOptions())
    assert state.path == "picard" and state.lattice.unit == 1
    assert state.converged == oracle.converged and state.iterations == oracle.iterations
    assert np.array_equal(state.i_j, oracle.i_j)


def test_comb_rung_needs_a_start_on_the_comb():
    # A warm start with weight off the comb skips the comb rung; one on it
    # starts the rung from it.  A tone on a pump harmonic (s = m) runs on
    # the same bins as the stride lattice, with no comb rung.
    m = EMISSION_M
    start = np.zeros(DEFAULT_GRID.size, dtype=complex)
    start[m] = 1e-8
    rungs = list(_lattices(DEFAULT_GRID, m, [], 1, 1e-7, ZERO_PAD, start))
    assert [rung.unit for rung in rungs] == [m, 1]
    start[m + 1] = 1e-20
    rungs = _lattices(DEFAULT_GRID, m, [], 1, 1e-7, ZERO_PAD, start)
    assert [rung.unit for rung in rungs] == [1]
    rungs = _lattices(DEFAULT_GRID, m, [2 * m], m, 1e-7, ZERO_PAD)
    assert [rung.unit for rung in rungs] == [m]
    assert [rung.unit for rung in _lattices(DEFAULT_GRID, m, [], 1, 0.0, ZERO_PAD)] == [1]


def test_comb_rung_needs_narrow_blocks():
    # The comb rung runs only where its blocks, 2 * ceil(N / m) square, are
    # at most 2 * PROOF_WIDTH wide, so that a proof chunk holds a whole
    # block and the proof stays below a full-grid solve.  At small pump bins
    # (m = 2 would build 32768-square blocks) the full grid decides alone.
    assert 16 * (2 * PROOF_WIDTH) ** 2 <= PROOF_CHUNK_BYTES
    least = -(-DEFAULT_GRID.size // PROOF_WIDTH)  # 3641: a comb of PROOF_WIDTH bins

    def units(m):
        return [rung.unit for rung in _lattices(DEFAULT_GRID, m, [], 1, 1e-7, ZERO_PAD)]

    assert units(least) == [least, 1] and units(least - 1) == [1]
    assert units(1000) == [1] and units(50) == [1] and units(2) == [1]


def test_comb_rung_needs_zero_pad_2():
    # On the comb's 2 * 3 samples at zero_pad 1, c(t)'s harmonics 4 and 5,
    # which the blocks read, alias onto -2 and -1; and the full grid's 2N
    # samples fold pump harmonics onto bins off the comb, 2e-3 i_c at
    # 0.05 ohm.  So no comb rung runs there: the stride-1 lattice decides
    # alone, bit for bit as the plain loop.  At zero_pad 2 the rung runs.
    row = _emission_row(bias_resistance=0.05)
    assert [rung.unit for rung in _lattices(DEFAULT_GRID, EMISSION_M, [], 1, 1e-7, 2)] == [
        EMISSION_M, 1
    ]
    assert [rung.unit for rung in _lattices(DEFAULT_GRID, EMISSION_M, [], 1, 1e-7, 1)] == [1]
    options = SolverOptions(zero_pad=1)
    state = iterate(row, EMISSION_BIAS, Stimulus.none(), options)
    oracle = plain_iterate(row, EMISSION_BIAS, Stimulus.none(), options)
    assert state.path == "picard" and state.lattice.unit == 1 and state.converged
    assert state.iterations == oracle.iterations and np.array_equal(state.i_j, oracle.i_j)
    off = np.arange(DEFAULT_GRID.size) % EMISSION_M != 0
    assert np.abs(oracle.i_j[off]).max() > 1e-3 * EMISSION_BIAS.i_c
