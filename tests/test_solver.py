"""Fixed-point junction solver: spectra, convergence, energy bookkeeping."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.constants import e as E_CHARGE, hbar as HBAR
from scipy.special import jv

from ictasim.circuit import FrequencyGrid
from ictasim.frankenstein import JunctionRow, PortKind, junction_row
from ictasim.solver import (
    BiasPoint,
    DivergenceError,
    Stimulus,
    Tone,
    bias_voltage,
    bin_power_dbm,
    dbm_to_watts,
    gain,
    iterate,
    josephson_frequency,
    outputs,
    phase_update,
    power_balance,
    round_bias,
    solve,
    time_samples,
    to_spectrum,
    to_time,
    tone_amplitude,
    watts_to_dbm,
)

F_DC = 12e9
I_C = 280e-9


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
    bias = BiasPoint(f_dc=12e9, i_c=280e-9, phase=2 * np.pi + 0.25)
    assert_allclose(bias.phase, 0.25)
    assert_allclose(bias.v_dc, bias_voltage(12e9))
    with pytest.raises(ValueError):
        BiasPoint(f_dc=0.0, i_c=1e-9)
    with pytest.raises(ValueError):
        BiasPoint(f_dc=12e9, i_c=-1e-9)


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
    grid = FrequencyGrid(1e7, 256)
    bias = BiasPoint(f_dc=64e7, i_c=1e-7, phase=0.3)
    v = np.zeros(256, dtype=complex)
    v0, k = 4e-7, 12
    v[k] = 0.5 * v0
    t = time_samples(grid)
    w = 2 * np.pi * grid.frequencies[k]
    expected = 2 * np.pi * bias.f_dc * t + 0.3 + (2 * E_CHARGE / HBAR) * v0 * np.sin(w * t) / w
    # The ramp is stored wrapped, so compare on the unit circle.
    assert_allclose(np.exp(1j * phase_update(v, bias, grid)), np.exp(1j * expected), atol=1e-9)


def test_phase_update_requires_grid_aligned_bias():
    grid = FrequencyGrid(1e7, 256)
    with pytest.raises(ValueError):
        phase_update(np.zeros(256), BiasPoint(f_dc=64.5e7, i_c=1e-7), grid)


def _bare_junction_row(grid, port_impedance=50.0):
    # Zero feedback: the junction sees no embedding impedance and the wave
    # port couples straight onto the junction voltage.
    n = grid.size
    cols = np.zeros((n, 2), dtype=complex)
    cols[:, 0] = 1.0
    return JunctionRow(
        junction_index=1,
        f_jj=np.zeros(n, dtype=complex),
        source_columns=cols,
        kinds=(PortKind.wave(port_impedance), PortKind.current_bias()),
        port_names=("signal", "junction"),
        frequencies=grid.frequencies,
        grid=grid,
    )


def test_zero_critical_current_converges_immediately():
    grid = FrequencyGrid(16e6, 2048)
    row = _bare_junction_row(grid)
    bias = BiasPoint(f_dc=F_DC, i_c=0.0)
    state = iterate(row, bias, Stimulus.single(6e9, -140.0))
    assert state.converged
    assert state.iterations == 1
    assert state.residual == 0.0
    assert np.all(state.i_j == 0.0)


def test_pure_pump_line_magnitude():
    # With no feedback and no stimulus the junction current is I_c sin of the
    # bare ramp: a single line of stored magnitude I_c / 2 at the pump bin.
    grid = FrequencyGrid(16e6, 2048)
    row = _bare_junction_row(grid)
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    state = iterate(row, bias, Stimulus.none())
    m = int(round(F_DC / grid.spacing))
    assert state.converged
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
    g_cold = gain(outputs(cold, canonical_f), 6e9)
    g_warm = gain(outputs(warm, canonical_f), 6e9)
    assert abs(g_cold - g_warm) < 0.01


def test_relaxation_reaches_same_fixed_point(canonical_f):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    stim = Stimulus.single(6e9, -130.0)
    row = junction_row(canonical_f)
    plain = iterate(row, bias, stim)
    damped = iterate(row, bias, stim, relaxation=0.5)
    assert plain.converged and damped.converged
    assert_allclose(damped.i_j, plain.i_j, atol=1e-10 * I_C)
    with pytest.raises(ValueError):
        iterate(row, bias, stim, relaxation=0.0)
    with pytest.raises(ValueError):
        iterate(row, bias, stim, relaxation=1.5)


def test_divergent_response_raises():
    grid = FrequencyGrid(16e6, 2048)
    row = _bare_junction_row(grid)
    f_jj = row.f_jj.copy()
    f_jj[750] = np.inf  # an undamped resonance right on the pump bin
    bad = JunctionRow(
        junction_index=row.junction_index,
        f_jj=f_jj,
        source_columns=row.source_columns,
        kinds=row.kinds,
        port_names=row.port_names,
        frequencies=row.frequencies,
        grid=grid,
    )
    # DivergenceError is the only report: numpy's own warning would be an error here
    with warnings.catch_warnings(), pytest.raises(DivergenceError):
        warnings.simplefilter("error")
        iterate(bad, BiasPoint(f_dc=F_DC, i_c=I_C), Stimulus.none())


def test_iteration_budget_flags_nonconvergence():
    grid = FrequencyGrid(16e6, 2048)
    row = _bare_junction_row(grid)
    state = iterate(
        row,
        BiasPoint(f_dc=F_DC, i_c=I_C),
        Stimulus.single(6e9, -130.0),
        max_iterations=1,
        tolerance=1e-300,
    )
    assert not state.converged
    assert state.iterations == 1


def test_stimulus_validation(canonical_f):
    from ictasim.frankenstein import junction_row

    row = junction_row(canonical_f)
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    with pytest.raises(ValueError):
        iterate(row, bias, Stimulus.single(6e9, -140.0, port="coupler"))
    with pytest.raises(ValueError):
        iterate(row, bias, Stimulus.single(6e9, -140.0, port="dc"))
    with pytest.raises(ValueError):
        iterate(row, bias, Stimulus.single(40e9, -140.0))
    with pytest.raises(ValueError):
        Tone(frequency=-1e9, power_dbm=-140.0)
    with pytest.raises(ValueError):
        iterate(row, BiasPoint(f_dc=F_DC + 0.3e6, i_c=I_C), Stimulus.none())
    with pytest.raises(ValueError):
        iterate(row, bias, Stimulus.none(), initial=np.zeros(17))


def test_dc_current_drawn_is_positive(canonical_f):
    # The supply must source power while the junction pumps the resonator.
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    state = solve(canonical_f, bias, Stimulus.none())
    dc_row = state.port_names.index("dc")
    i_dc = state.a_out[dc_row, 0]
    assert abs(i_dc.imag) < 1e-18
    assert i_dc.real > 0.0
