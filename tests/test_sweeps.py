"""Sweep orchestration, saturation-model fitting, and emission tests."""

import json
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from ictasim import solver, sweeps
from ictasim._minpack import lmder
from ictasim.circuit import DEFAULT_GRID, FrequencyGrid, IctaParams, build_icta, frankenstein_matrix
from ictasim.frankenstein import PortKind, junction_row
from ictasim.solver import (
    PROBE_STEPS,
    PROBE_ZERO_PAD,
    BiasPoint,
    Stimulus,
    _picard_step,
    _round_trip,
    iterate,
)
from ictasim.sweeps import (
    MAX_FIT_EVALUATIONS,
    CompressionCurve,
    FitFailedError,
    GainMap,
    NotFittableError,
    RappFit,
    SolverOptions,
    _rapp_problem,
    compression_sweep,
    fit_row,
    gain_map_fdc,
    gain_map_ic,
    gain_profile,
    p1db,
    photon_rate,
    plateau_metrics,
    pump_emission,
    rapp_fit,
    rapp_gain_db,
    raw_p1db,
    read_compression_csv,
    write_compression_csv,
    write_map_csv,
    write_profile_csv,
    write_sidecar,
    write_table,
)
from oracles import (
    ArrayResponse,
    plain_iterate,
    power_iteration_growth,
    scipy_lm,
    write_table_rows,
)

F_DC = 12.0e9
I_C = 280e-9
FAST = SolverOptions(max_iterations=3000)


# ---------------------------------------------------------------- plateau


def test_plateau_picks_longest_run():
    f = np.arange(10) * 1e8
    ok = np.ones(10, dtype=bool)
    # the longest run wins; of equally long runs, the first
    for g, (i, j) in (
        ([11, 11, 3, 11, 11, 11, 11, 3, 11, 11], (3, 6)),
        ([11, 11, 11, 3, 3, 3, 11, 11, 11, 3], (0, 2)),
    ):
        bw, avg, lo, hi = plateau_metrics(f, np.array(g, dtype=float), ok, threshold_db=10.0)
        assert lo == f[i] and hi == f[j]
        assert bw == f[j] - f[i]
        assert avg == 11.0


def test_plateau_break_on_unconverged_point():
    f = np.arange(6) * 1e8
    g = np.full(6, 12.0)
    ok = np.array([True, True, False, True, True, True])
    bw, avg, lo, hi = plateau_metrics(f, g, ok)
    # the masked point splits the run; the longer right half wins
    assert (lo, hi) == (f[3], f[5])
    assert bw == 2e8


def test_plateau_empty_when_nothing_clears_threshold():
    f = np.arange(4) * 1e8
    bw, avg, lo, hi = plateau_metrics(f, np.full(4, 5.0), np.ones(4, bool))
    assert bw == 0.0
    assert np.isnan(avg) and np.isnan(lo) and np.isnan(hi)


# ---------------------------------------------------------------- Rapp model


def test_rapp_gain_tails():
    # deep linear regime: gain equals G0; deep compression: output pins at P_sat
    assert rapp_gain_db(-200.0, 10.0, -100.0, 1.0) == pytest.approx(10.0, abs=1e-8)
    deep = rapp_gain_db(-60.0, 10.0, -100.0, 1.0)
    assert deep + (-60.0) == pytest.approx(-100.0, abs=1e-6)


def test_rapp_gain_at_knee_input():
    # where G0 * P_in = P_sat the model sits (5/p) log10(2) below G0
    for p in (0.5, 1.0, 2.0, 4.0):
        g = rapp_gain_db(-110.0, 10.0, -100.0, p)
        assert g == pytest.approx(10.0 - (5.0 / p) * np.log10(2.0), rel=1e-12)


def test_rapp_output_watts_matches_db_form():
    # the textbook watts form of the model is the oracle of its dB form
    fit = RappFit(gain=10.0 ** (13.0 / 10.0), p_sat=1e-13, knee=1.4, residual_db=0.0)
    p_in_dbm = np.linspace(-130.0, -95.0, 12)
    p_in_w = 10.0 ** ((p_in_dbm - 30.0) / 10.0)
    driven = fit.gain * p_in_w
    out_w = driven / (1.0 + (driven / fit.p_sat) ** (2 * fit.knee)) ** (1.0 / (2 * fit.knee))
    gains = rapp_gain_db(p_in_dbm, fit.gain_db, fit.p_sat_dbm, fit.knee)
    np.testing.assert_allclose(
        10.0 * np.log10(out_w / p_in_w), gains, rtol=0, atol=1e-10
    )


def test_rapp_fit_roundtrip_reference_point():
    rng = np.random.default_rng(11)
    g0, psat, knee = 20.0, -100.0, 1.5
    p_in = (psat - g0) + np.linspace(-25.0, 15.0, 3001)
    noisy = rapp_gain_db(p_in, g0, psat, knee) + rng.normal(0.0, 0.05, p_in.size)
    fit = rapp_fit(p_in, noisy)
    assert abs(fit.gain_db - g0) / g0 < 0.02
    assert abs(fit.p_sat_dbm - psat) / abs(psat) < 0.02
    assert abs(fit.knee - knee) / knee < 0.02
    assert fit.residual_db < 0.07


def test_rapp_fit_idempotent():
    rng = np.random.default_rng(3)
    p_in = np.linspace(-130.0, -95.0, 40)
    noisy = rapp_gain_db(p_in, 12.0, -101.0, 1.1) + rng.normal(0.0, 0.05, p_in.size)
    first = rapp_fit(p_in, noisy)
    clean = rapp_gain_db(p_in, first.gain_db, first.p_sat_dbm, first.knee)
    second = rapp_fit(p_in, clean)
    assert abs(second.gain - first.gain) / first.gain < 1e-3
    assert abs(second.p_sat - first.p_sat) / first.p_sat < 1e-3
    assert abs(second.knee - first.knee) / first.knee < 1e-3


def model_curve(p_in, gain_db, p_sat_dbm, knee):
    return p_in, rapp_gain_db(p_in, gain_db, p_sat_dbm, knee)


def noisy_rapp(seed, size):
    p_in, g = model_curve(np.linspace(-130.0, -95.0, size), 12.0, -101.0, 1.1)
    return p_in, g + np.random.default_rng(seed).normal(0.0, 0.05, size)


# The lowest point sits at G0 and the highest at P_sat to the last bit, so
# the fit starts on the model itself: zero residual, zero gradient.
EXACT_START_POWERS = np.array([-400.0, -30.0, -20.0, -15.0, -10.0])

# (power, gain), residual budget and the MINPACK exit both fits take; the
# cases reach every exit the port returns
LM_CASES = [
    pytest.param(noisy_rapp(1, 8), MAX_FIT_EVALUATIONS, 1, id="noisy-8"),
    pytest.param(noisy_rapp(0, 8), MAX_FIT_EVALUATIONS, 3, id="noisy-8-seed0"),
    pytest.param(noisy_rapp(0, 12), MAX_FIT_EVALUATIONS, 1, id="noisy-12"),
    pytest.param(noisy_rapp(1, 12), MAX_FIT_EVALUATIONS, 3, id="noisy-12-seed1"),
    pytest.param(noisy_rapp(11, 400), MAX_FIT_EVALUATIONS, 2, id="noisy-400"),
    pytest.param(noisy_rapp(0, 400), MAX_FIT_EVALUATIONS, 3, id="noisy-400-seed0"),
    pytest.param(noisy_rapp(0, 3001), MAX_FIT_EVALUATIONS, 3, id="noisy-3001"),
    pytest.param(
        model_curve(np.linspace(-130.0, -95.0, 40), 12.0, -101.0, 1.1),
        MAX_FIT_EVALUATIONS,
        2,
        id="noise-free",
    ),
    pytest.param(
        model_curve(EXACT_START_POWERS, 10.0, -100.0, 1.0),
        MAX_FIT_EVALUATIONS,
        4,
        id="noise-free-exact-start",
    ),
    pytest.param(noisy_rapp(0, 12), 3, 5, id="budget-spent"),
]


@pytest.mark.parametrize("data, budget, info", LM_CASES)
def test_lm_port_matches_scipy_bit_for_bit(data, budget, info):
    problem = _rapp_problem(*data)
    x, fun, port_info = lmder(*problem, budget)
    scipy_x, scipy_fun, scipy_info = scipy_lm(*problem, budget)
    assert np.array_equal(x, scipy_x)
    assert np.array_equal(fun, scipy_fun)
    assert port_info == scipy_info == info


def test_lm_cases_reach_every_exit():
    assert sorted({case.values[2] for case in LM_CASES}) == [1, 2, 3, 4, 5]


def test_spent_fit_budget_raises(monkeypatch):
    monkeypatch.setattr(sweeps, "MAX_FIT_EVALUATIONS", 3)
    with pytest.raises(FitFailedError, match="did not converge in 3 residual evaluations"):
        rapp_fit(*noisy_rapp(0, 12))


@pytest.mark.parametrize(
    "n_phases, phase_index", [(2, -1), (2, 2), (1, 1), pytest.param(None, 5, id="arrays-5")]
)
def test_rapp_fit_rejects_phase_index_out_of_range(n_phases, phase_index):
    powers = np.linspace(-140.0, -110.0, 9)
    if n_phases is None:
        # A pair of arrays is a one-row curve: None and 0 fit it alike.
        gains = rapp_gain_db(powers, 20.0, -101.0, 1.0)
        assert rapp_fit(powers, gains, phase_index=0) == rapp_fit(powers, gains)
        with pytest.raises(ValueError, match=r"out of range \[0, 1\)"):
            rapp_fit(powers, gains, phase_index=phase_index)
        return
    rows = [rapp_gain_db(powers, 20.0 - 2.0 * i, -101.0, 1.0) for i in range(n_phases)]
    curve = CompressionCurve(
        power_in_dbm=powers,
        gain_db=np.vstack(rows),
        phases=np.linspace(0.0, np.pi / 2, n_phases),
        converged=np.ones((n_phases, 9), dtype=bool),
        balance_error=np.zeros((n_phases, 9)),
        signal_frequency=6.4e9,
        bias=BiasPoint(f_dc=F_DC, i_c=I_C),
    )
    with pytest.raises(ValueError, match=rf"out of range \[0, {n_phases}\)"):
        rapp_fit(curve, phase_index=phase_index)


def test_linear_curve_not_fittable():
    p_in = np.linspace(-140.0, -120.0, 12)
    with pytest.raises(NotFittableError):
        rapp_fit(p_in, np.full(12, 10.0))


def test_too_few_points_not_fittable():
    with pytest.raises(NotFittableError):
        rapp_fit(np.array([-120.0, -110.0, -100.0]), np.array([10.0, 8.0, 5.0]))


def test_injection_locked_collapse_rejected():
    # output power falling whole dB below its running maximum is not a
    # saturation curve and must be refused rather than fitted
    p_in = np.linspace(-130.0, -100.0, 16)
    g = rapp_gain_db(p_in, 10.0, -101.0, 1.0)
    g[-3:] -= 6.0
    with pytest.raises(FitFailedError):
        rapp_fit(p_in, g)


def test_mild_noise_survives_monotonicity_guard():
    rng = np.random.default_rng(17)
    p_in = np.linspace(-130.0, -100.0, 400)
    g = rapp_gain_db(p_in, 10.0, -101.0, 1.0) + rng.normal(0.0, 0.05, 400)
    fit = rapp_fit(p_in, g)
    assert abs(fit.gain_db - 10.0) < 0.2


def test_hard_clip_limit():
    # hard-clipped amplifier: fitted knee runs large, P1dB lands one dB past
    # the clip corner P_sat/G0
    g0, psat = 15.0, -98.0
    p_in = np.linspace(psat - g0 - 20.0, psat - g0 + 10.0, 400)
    g = np.minimum(g0, psat - p_in)
    fit = rapp_fit(p_in, g)
    assert fit.knee > 5.0
    assert p1db(fit) == pytest.approx(psat - g0 + 1.0, abs=0.3)


def test_p1db_matches_numeric_root():
    for g0, psat, knee in [(10.0, -103.0, 0.8), (20.0, -100.0, 1.5), (7.0, -110.0, 3.0)]:
        fit = RappFit(
            gain=10.0 ** (g0 / 10.0),
            p_sat=10.0 ** ((psat - 30.0) / 10.0),
            knee=knee,
            residual_db=0.0,
        )
        analytic = p1db(fit)
        numeric = brentq(
            lambda x: rapp_gain_db(x, g0, psat, knee) - (g0 - 1.0),
            psat - g0 - 40.0,
            psat - g0 + 40.0,
        )
        assert analytic == pytest.approx(numeric, abs=1e-9)


def test_p1db_finite_for_huge_knee():
    fit = RappFit(gain=10.0, p_sat=1e-13, knee=1e8, residual_db=0.0)
    assert p1db(fit) == pytest.approx(fit.p_sat_dbm - 10.0 + 1.0, abs=1e-9)


def test_raw_p1db_interpolates_crossing():
    p_in = np.linspace(-130.0, -100.0, 31)
    g = rapp_gain_db(p_in, 10.0, -101.0, 1.0)
    raw = raw_p1db(p_in, g)
    assert rapp_gain_db(raw, 10.0, -101.0, 1.0) == pytest.approx(g[0] - 1.0, abs=0.02)
    assert np.isnan(raw_p1db(p_in[:5], g[:5]))


# ---------------------------------------------------------------- profiles


def test_profile_metrics_and_mask(canonical_f):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    fs = np.arange(4.0e9, 8.0e9 + 1, 0.32e9)
    prof = gain_profile(canonical_f, bias, fs, -140.0, options=FAST)
    assert prof.converged.all()
    assert np.isfinite(prof.gain_db).all()
    # metrics agree with recomputing them from the returned samples
    bw, avg, lo, hi = plateau_metrics(
        prof.frequencies, prof.gain_db, prof.converged, prof.threshold_db
    )
    assert prof.bandwidth_hz == bw and prof.average_gain_db == avg
    assert prof.band_lo_hz == lo and prof.band_hi_hz == hi
    assert 2.0e9 < bw < 4.5e9
    assert 9.0 < avg < 12.5


def test_profile_warm_equals_cold(canonical_f):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    fs = np.arange(5.0e9, 6.6e9, 0.32e9)
    chained = gain_profile(canonical_f, bias, fs, -140.0, options=FAST)
    for k, f in enumerate(fs):
        cold = gain_profile(canonical_f, bias, [f], -140.0, options=FAST)
        assert abs(cold.gain_db[0] - chained.gain_db[k]) < 0.01


def test_profile_masks_budget_exhaustion(canonical_f):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    starved = SolverOptions(max_iterations=2)
    prof = gain_profile(
        canonical_f, bias, [5.008e9, 6.4e9], -140.0, options=starved
    )
    assert not prof.converged.any()
    assert np.isnan(prof.gain_db).all()
    assert prof.bandwidth_hz == 0.0


def test_profile_rejects_off_grid_axis(canonical_f):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    with pytest.raises(ValueError):
        gain_profile(canonical_f, bias, [40.0e9])
    with pytest.raises(ValueError):
        gain_profile(canonical_f, bias, [5e9, 5e9])


# ---------------------------------------------------------------- gain maps


def test_map_zero_critical_current_is_flat(canonical_f):
    fs = np.arange(4.0e9, 7.0e9, 0.64e9)
    fdc = np.array([10.0e9, 12.0e9])
    gmap = gain_map_fdc(canonical_f, fs, fdc, 0.0, options=FAST)
    assert gmap.converged.all()
    np.testing.assert_allclose(gmap.values, 0.0, atol=1e-6)


def test_map_signal_idler_reciprocity(canonical_f):
    # the idler of bin 300 at m=750 is bin 450: 4.8 GHz vs 7.2 GHz
    fs = np.array([4.8e9, 7.2e9])
    gmap = gain_map_fdc(canonical_f, fs, [F_DC], I_C, options=FAST)
    assert gmap.converged.all()
    assert abs(gmap.values[0, 0] - gmap.values[0, 1]) < 0.1


def test_map_gain_rises_with_critical_current(canonical_f):
    ics = np.array([50e-9, 120e-9, 200e-9, 280e-9])
    gmap = gain_map_ic(canonical_f, [6.4e9], ics, F_DC, options=FAST)
    assert gmap.axis_name == "i_c_a"
    assert gmap.converged.all()
    assert np.all(np.diff(gmap.values[:, 0]) > 0)


def test_map_rejects_bias_beyond_half_grid(canonical_f):
    with pytest.raises(ValueError):
        gain_map_fdc(canonical_f, [5e9], [40.0e9], I_C)


def test_map_rejects_empty_bias_axis(canonical_f):
    with pytest.raises(ValueError, match="bias frequency axis must be a nonempty 1-D array"):
        gain_map_fdc(canonical_f, [6e9], [], I_C)
    with pytest.raises(ValueError, match="critical-current axis must be a nonempty 1-D array"):
        gain_map_ic(canonical_f, [6e9], [], F_DC)


def test_map_shape_validation():
    with pytest.raises(ValueError):
        GainMap(
            signal_frequencies=np.array([1e9, 2e9]),
            axis_values=np.array([1e9]),
            axis_name="f_dc_hz",
            values=np.zeros((2, 2)),
            converged=np.ones((1, 2), dtype=bool),
            balance_error=np.zeros((1, 2)),
            power_dbm=-140.0,
        )
    with pytest.raises(ValueError):
        GainMap(
            signal_frequencies=np.array([2e9, 1e9]),
            axis_values=np.array([1e9]),
            axis_name="f_dc_hz",
            values=np.zeros((1, 2)),
            converged=np.ones((1, 2), dtype=bool),
            balance_error=np.zeros((1, 2)),
            power_dbm=-140.0,
        )


@pytest.mark.parametrize(
    "f_dc, f_s",
    [(8.96e9, 8.96e9), (12.8e9, 6.4e9)],
    ids=["pump_line", "degenerate"],
)
def test_map_feature_cells_match_full_grid(monkeypatch, f_dc, f_s):
    # Cells of the criterion-2 map: f_s = f_dc (stride 448) and f_s = f_dc / 2
    # (stride 320), against the plain loop over every grid bin.
    grid = FrequencyGrid(20e6, 2048)
    response = frankenstein_matrix(build_icta(IctaParams()), grid)
    options = SolverOptions(max_iterations=2500)
    states = []
    real_iterate = sweeps.iterate

    def record(*args, **kwargs):
        states.append(real_iterate(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(sweeps, "iterate", record)
    fast = gain_map_fdc(response, [f_s], [f_dc], 200e-9, options=options)
    monkeypatch.setattr(sweeps, "iterate", plain_iterate)
    full = gain_map_fdc(response, [f_s], [f_dc], 200e-9, options=options)
    (state,) = states
    assert state.lattice.unit == round(f_s / grid.spacing)
    assert 0.0 < state.off_lattice_growth < 1.0
    assert fast.converged.all() and full.converged.all()
    assert abs(fast.values[0, 0] - full.values[0, 0]) <= 1e-9


# ---------------------------------------------------------------- chain probes


def _recorded_states(monkeypatch):
    """The states of every solve a sweep runs from here on, in order."""
    states = []
    real_iterate = sweeps.iterate

    def record(*args, **kwargs):
        states.append(real_iterate(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(sweeps, "iterate", record)
    return states


def test_chain_builds_the_probe_tables_once(monkeypatch, canonical_f):
    # Every point of each profile is probed, on lattices of strides 10 to 150
    # on the 2048-bin grid and 160 to 2400 on DEFAULT_GRID.  On both grids the
    # chain builds no full-grid round trip at zero_pad 2 (the tangent's), and
    # coset tables only when its lattice unit changes.  It leaves each ramp
    # as it was and frees the tables on return.
    built, trips = [], []
    real_cosets, real_round_trip = solver._Cosets, solver._round_trip

    def spy(f_jj, frequencies, m, s, zero_pad):
        cosets = real_cosets(f_jj, frequencies, m, s, zero_pad)
        built.append((s, cosets.ramp, cosets.ramp.copy(), weakref.ref(cosets)))
        return cosets

    def spy_trip(frequencies, m, bias, zero_pad):
        if zero_pad == PROBE_ZERO_PAD:
            trips.append(frequencies.size)
        return real_round_trip(frequencies, m, bias, zero_pad)

    monkeypatch.setattr(solver, "_Cosets", spy)
    monkeypatch.setattr(solver, "_round_trip", spy_trip)
    states = _recorded_states(monkeypatch)
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    signal = np.arange(4.8e9, 7.2e9, 0.32e9)
    for response in (canonical_f, frankenstein_matrix(build_icta(IctaParams()), DEFAULT_GRID)):
        del built[:], trips[:], states[:]
        profile = gain_profile(response, bias, signal, options=FAST)
        assert profile.converged.all() and len(states) == 8
        assert all(state.probe_steps > 0 for state in states)
        assert sum(state.probe_steps for state in states) < 8 * PROBE_STEPS
        units = [state.lattice.unit for state in states]
        changes = [s for i, s in enumerate(units) if i == 0 or s != units[i - 1]]
        assert len(changes) < len(units)
        assert trips == [] and [s for s, *_ in built] == changes
        for _, ramp, before, tables in built:
            assert np.array_equal(ramp, before)
            assert tables() is None


def test_chain_masks_match_long_power_iteration(monkeypatch, canonical_f):
    # A profile, a map whose 300 nA row runs through unstable cells, and two
    # compression chains at -135 to -100 dBm: every probe's verdict, each
    # chain's first (from the comb) included, is that of 300 steps of power
    # iteration.  The chain at 300 nA and 4.0 GHz goes from masked to
    # converged between -115 and -110 dBm, where the oracle reads 1.0133 and
    # 0.9912.
    states = _recorded_states(monkeypatch)
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    signal = np.arange(4.0e9, 7.5e9, 0.48e9)
    profile = gain_profile(canonical_f, bias, signal, options=FAST)
    gmap = gain_map_ic(canonical_f, signal, [200e-9, 300e-9], F_DC, options=FAST)
    curves = [
        compression_sweep(canonical_f, BiasPoint(f_dc=F_DC, i_c=i_c), f_s,
                          np.linspace(-135.0, -100.0, 8), options=FAST)
        for i_c, f_s in ((300e-9, 4.0e9), (280e-9, 4.8e9))
    ]
    chains = [profile.converged, gmap.converged, *(curve.converged for curve in curves)]
    assert [state.converged for state in states] == np.concatenate(chains, axis=None).tolist()
    assert curves[0].converged.ravel().tolist() == [False] * 5 + [True] * 3
    row = junction_row(canonical_f)
    probed = [state for state in states if state.probe_steps]
    verdicts = [power_iteration_growth(row, state) < 1.0 for state in probed]
    assert [state.converged for state in probed] == verdicts
    assert True in verdicts and False in verdicts
    # The oracle has settled at 300 steps: at 280 nA, 4.8 GHz and -100 dBm
    # its mean reads 0.761 against 0.790 over 1000 steps (a last single
    # ratio read 0.894).
    last = states[-1]
    assert last.stimulus.tones[0].power_dbm == -100.0 and last.bias.i_c == 280e-9
    settled = power_iteration_growth(row, last, steps=1000)
    assert abs(power_iteration_growth(row, last) - settled) <= 0.05


def test_seeded_probe_misjudges_near_threshold(monkeypatch, canonical_f):
    # From the seeded perturbation, PROBE_STEPS steps at 300 nA and 4.0 GHz
    # are too few to leave the start's transient: they read 0.942 where 300
    # steps read 1.029, and passed an unstable point.  The first probe of a
    # chain on a stride lattice starts from the comb's dominant off-lattice
    # modes instead, and masks it.
    starts = []
    real_start = solver.Chain.probe_start

    def spy(*args):
        starts.append(real_start(*args))
        return starts[-1]

    monkeypatch.setattr(solver.Chain, "probe_start", spy)
    row = junction_row(canonical_f)
    state = iterate(row, BiasPoint(f_dc=F_DC, i_c=300e-9), Stimulus.single(4.0e9, -140.0), FAST)
    assert len(starts) == 1 and starts[0] is not None
    assert state.lattice.unit == 250 and state.probe_steps < PROBE_STEPS
    rate = power_iteration_growth(row, state)
    assert abs(state.off_lattice_growth - rate) <= 1e-3
    assert state.converged == (rate < 1.0)


def test_sweeps_call_iterate_as_the_tracer_reads_it(monkeypatch, canonical_f):
    # perfbench/tracer.py wraps `sweeps.iterate` and reads each call's bias
    # (args[1]), stimulus (args[2]) and warm start (kwargs["initial"]).  A
    # chain passes `initial=` at every point: the last state's i_j after a
    # converged point, None at its first point and after an unconverged one
    # (the 300 nA compression chain is masked up to -115 dBm).  The emission
    # solve passes none.
    calls = []
    real_iterate = sweeps.iterate

    def spy(*args, **kwargs):
        calls.append((args, kwargs, real_iterate(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(sweeps, "iterate", spy)
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    gain_profile(canonical_f, bias, np.arange(4.8e9, 7.2e9, 0.32e9), options=FAST)
    compression_sweep(canonical_f, BiasPoint(f_dc=F_DC, i_c=300e-9), 4.0e9,
                      np.linspace(-135.0, -100.0, 8), options=FAST)
    chains = [calls[:8], calls[8:]]
    pump_emission(canonical_f, bias, options=FAST)
    assert len(calls) == 17
    for args, kwargs, _ in calls:
        assert isinstance(args[1], BiasPoint) and isinstance(args[2], Stimulus)
    assert "initial" not in calls[-1][1]
    warm = []
    for chain in chains:
        before = None
        for _, kwargs, state in chain:
            expected = before.i_j if before is not None and before.converged else None
            assert kwargs["initial"] is expected
            warm.append(expected is not None)
            before = state
    assert True in warm[8:] and False in warm[9:]


def test_each_chain_is_built_once_for_its_operating_point(monkeypatch, canonical_f):
    # One `solver.Chain` per warm-start chain: a profile, each row of a map
    # and each phase of a compression curve build one, and every `iterate`
    # call of that chain is handed it, at the row, bias and options it was
    # built for.
    built, calls = [], []
    real_init, real_iterate = solver.Chain.__init__, sweeps.iterate

    def init(self, row, bias, options):
        built.append(self)
        real_init(self, row, bias, options)

    def spy(row, bias, stim, options, **kwargs):
        calls.append((row, bias, options, kwargs["chain"]))
        return real_iterate(row, bias, stim, options, **kwargs)

    monkeypatch.setattr(solver.Chain, "__init__", init)
    monkeypatch.setattr(sweeps, "iterate", spy)
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    signal = np.arange(4.8e9, 7.2e9, 0.32e9)
    gain_profile(canonical_f, bias, signal, options=FAST)
    gain_map_fdc(canonical_f, signal[:3], [11.2e9, F_DC], 200e-9, options=FAST)
    compression_sweep(canonical_f, bias, 6.4e9, np.linspace(-150.0, -136.0, 8), options=FAST)
    sizes = [8, 3, 3, 8]
    assert len(built) == len(sizes) and len(calls) == sum(sizes)
    assert [chain.bias.f_dc for chain in built] == [F_DC, 11.2e9, F_DC, F_DC]
    served = iter(calls)
    for chain, size in zip(built, sizes):
        for _ in range(size):
            row, bias, options, handed = next(served)
            assert handed is chain
            assert chain.row is row and chain.bias == bias and chain.options == options


# ---------------------------------------------------------------- chain chords


@pytest.fixture(scope="module")
def map_f():
    return frankenstein_matrix(build_icta(IctaParams()), FrequencyGrid(20e6, 2048))


def test_chord_map_and_profile_match_plain_picard(monkeypatch, map_f):
    # The benchmark map's grid and current: every stimulated point solves by
    # the chord, and against the plain loop over every grid bin the masks
    # are equal, the gains agree within 1e-7 dB and the balance stays at
    # most 1e-9.
    options = SolverOptions(max_iterations=2500)
    signals = np.linspace(3.2e9, 9.6e9, 9)
    bias_rows = [8.32e9, 10.24e9, 12.8e9, 17.92e9]
    bias = BiasPoint(f_dc=12.8e9, i_c=200e-9)
    states = _recorded_states(monkeypatch)
    fast_map = gain_map_fdc(map_f, signals, bias_rows, 200e-9, options=options)
    fast_profile = gain_profile(map_f, bias, signals, options=options)
    assert {state.path for state in states} == {"chord"}
    monkeypatch.setattr(sweeps, "iterate", plain_iterate)
    plain_map = gain_map_fdc(map_f, signals, bias_rows, 200e-9, options=options)
    plain_profile = gain_profile(map_f, bias, signals, options=options)
    for fast, plain in ((fast_map.values, plain_map.values),
                        (fast_profile.gain_db, plain_profile.gain_db)):
        assert np.array_equal(np.isnan(fast), np.isnan(plain))
        assert np.nanmax(np.abs(fast - plain)) <= 1e-7
    assert np.array_equal(fast_map.converged, plain_map.converged)
    assert np.array_equal(fast_profile.converged, plain_profile.converged)
    assert fast_map.converged.any() and fast_profile.converged.all()
    assert np.nanmax(fast_map.balance_error) <= 1e-9
    assert np.nanmax(fast_profile.balance_error) <= 1e-9


def test_compression_past_p1db_keeps_plain_picard_bits(monkeypatch):
    # A compression chain of the benchmark's 160 MHz lattice (stride 160,
    # -108 to -94 dBm, all past P1dB): the first chord gives up, and the
    # chain's comb retires the chord of that unit, so the later points run
    # plain Picard at once.  Every state is the chord-free solve's, bit for
    # bit.
    response = frankenstein_matrix(build_icta(IctaParams()), DEFAULT_GRID)
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    stimuli = [Stimulus.single(5.44e9, p) for p in np.linspace(-108.0, -94.0, 8)]
    options = SolverOptions()
    states = _recorded_states(monkeypatch)
    with_chord = sweeps._chain(response, bias, stimuli, options)
    chord_states = list(states)
    monkeypatch.setattr(solver.Chain, "chord", lambda *args: None)
    states.clear()
    without = sweeps._chain(response, bias, stimuli, options)
    assert [state.path for state in chord_states] == ["fallback"] + ["picard"] * 7
    assert [state.path for state in states] == ["picard"] * 8
    assert all(state.lattice.unit == 160 for state in states)
    for a, b in zip(with_chord[:3], without[:3]):  # gain, converged, balance
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
    for a, b in zip(chord_states, states):
        assert np.array_equal(a.i_j, b.i_j)
    iterations, plain = with_chord[3], without[3]
    assert iterations[0] > plain[0] and np.array_equal(iterations[1:], plain[1:])
    assert with_chord[1].all()


# ---------------------------------------------------------------- compression


def test_compression_linear_regime_flat(canonical_f):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    powers = np.linspace(-150.0, -136.0, 8)
    curve = compression_sweep(
        canonical_f, bias, 6.4e9, powers, options=FAST
    )
    assert not curve.degenerate
    assert curve.gain_db.shape == (1, 8)
    assert curve.converged.all()
    assert np.ptp(curve.gain_db[0]) < 0.05


def test_compression_fit_recovers_saturation(canonical_f):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    powers = np.linspace(-135.0, -100.0, 15)
    curve = compression_sweep(
        canonical_f, bias, 6.4e9, powers, options=FAST
    )
    fit = rapp_fit(curve)
    # the MINPACK port returns scipy's bits on a simulated curve too
    problem = _rapp_problem(*fit_row(curve.power_in_dbm, curve.gain_db, curve.converged))
    port = lmder(*problem, MAX_FIT_EVALUATIONS)
    assert all(map(np.array_equal, port, scipy_lm(*problem, MAX_FIT_EVALUATIONS)))
    point = p1db(fit)
    assert curve.gain_db[0, 0] - 2.0 < fit.gain_db < curve.gain_db[0, 0] + 2.0
    assert -120.0 < point < -105.0
    raw = raw_p1db(curve.power_in_dbm, curve.gain_db[0])
    assert abs(point - raw) < 3.0


def test_stride_one_compression_keeps_iteration_counts(monkeypatch, canonical_f, coarse_grid):
    # Bin 401 is coprime with pump bin 750.  The plain loop over every grid
    # bin keeps the counts of the loop before sub-lattices; `iterate` runs
    # the chain on embedded lattices, whose count also holds the rungs that
    # missed the tail bound, and must give the same gains and masks.
    stimuli = [Stimulus.single(401 * coarse_grid.spacing, p) for p in np.linspace(-135, -100, 8)]
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    states = []
    real_iterate = sweeps.iterate

    def record(*args, **kwargs):
        states.append(real_iterate(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(sweeps, "iterate", record)
    fast_gain, fast_converged, fast_balance, _ = sweeps._chain(canonical_f, bias, stimuli, FAST)
    monkeypatch.setattr(sweeps, "iterate", plain_iterate)
    gain_db, converged, _, iterations = sweeps._chain(canonical_f, bias, stimuli, FAST)
    assert converged.all()
    assert iterations.tolist() == [110, 141, 177, 188, 157, 102, 56, 46]
    assert gain_db[0] - gain_db[-1] > 5.0  # driven well into compression
    assert all(state.lattice.alpha > 0 for state in states)
    assert np.array_equal(fast_converged, converged)
    assert np.max(np.abs(fast_gain - gain_db)) <= 1e-9
    assert np.max(fast_balance) <= 1e-9


def test_degenerate_compression_splits_by_phase(canonical_f):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    powers = np.linspace(-144.0, -130.0, 8)
    curve = compression_sweep(
        canonical_f, bias, 6.0e9, powers, options=FAST
    )
    assert curve.degenerate
    assert curve.phases.size == 8
    low, high = curve.envelope()
    assert np.all(high - low > 3.0)
    with pytest.raises(ValueError, match="8 phase rows"):
        rapp_fit(curve)


def test_compression_rejects_short_power_axis(canonical_f):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    with pytest.raises(ValueError):
        compression_sweep(
            canonical_f, bias, 6.4e9, np.linspace(-140.0, -120.0, 5)
        )
    with pytest.raises(ValueError):
        compression_sweep(
            canonical_f, bias, 6.4e9, np.full(9, -120.0)
        )
    with pytest.raises(ValueError):
        compression_sweep(
            canonical_f, bias, 6.4e9, np.linspace(-140.0, -120.0, 8),
            phases=[],
        )


def test_curve_requires_matching_shapes():
    with pytest.raises(ValueError):
        CompressionCurve(
            power_in_dbm=np.linspace(-140, -110, 9),
            gain_db=np.zeros((2, 8)),
            phases=np.array([0.0, 0.5]),
            converged=np.ones((2, 8), dtype=bool),
            balance_error=np.zeros((2, 8)),
            signal_frequency=6.4e9,
            bias=BiasPoint(f_dc=F_DC, i_c=I_C),
        )


def test_tables_check_mask_and_balance_shapes():
    # A mask or balance table of another shape than the gain's is refused
    # when the table is built, not when it is written.
    curve = dict(
        power_in_dbm=np.linspace(-140.0, -110.0, 8),
        gain_db=np.zeros((1, 8)),
        phases=np.array([0.0]),
        converged=np.ones((1, 8), dtype=bool),
        balance_error=np.zeros((1, 8)),
        signal_frequency=6.4e9,
        bias=BiasPoint(f_dc=F_DC, i_c=I_C),
    )
    gmap = dict(
        signal_frequencies=np.array([1e9, 2e9]),
        axis_values=np.array([10e9, 11e9, 12e9]),
        axis_name="f_dc_hz",
        values=np.zeros((3, 2)),
        converged=np.ones((3, 2), dtype=bool),
        balance_error=np.zeros((3, 2)),
        power_dbm=-140.0,
    )
    CompressionCurve(**curve)
    GainMap(**gmap)
    wrong = [
        (CompressionCurve, curve, "converged", np.ones((3, 2), dtype=bool)),
        (CompressionCurve, curve, "balance_error", np.zeros(5)),
        (GainMap, gmap, "balance_error", np.zeros(7)),
        (GainMap, gmap, "balance_error", np.zeros((2, 3))),
    ]
    for table, fields, name, value in wrong:
        with pytest.raises(ValueError, match="shapes do not match|must be"):
            table(**{**fields, name: value})


# ---------------------------------------------------------------- emission


def test_emission_zero_without_junction(canonical_f):
    result = pump_emission(
        canonical_f, BiasPoint(f_dc=F_DC, i_c=0.0), options=FAST
    )
    assert result.converged
    assert result.power_watts == 0.0
    assert result.power_dbm == float("-inf")
    assert result.photon_rate == 0.0


def test_emission_monotone_in_critical_current(canonical_f):
    rates = []
    for i_c in (50e-9, 100e-9, 200e-9, 280e-9):
        result = pump_emission(
            canonical_f, BiasPoint(f_dc=F_DC, i_c=i_c), options=FAST
        )
        assert result.converged
        rates.append(result.photon_rate)
    assert np.all(np.diff(rates) > 0)


def test_emission_band_integration_contains_line(canonical_f):
    bias = BiasPoint(f_dc=F_DC, i_c=200e-9)
    line = pump_emission(canonical_f, bias, 0.0, options=FAST)
    band = pump_emission(canonical_f, bias, 96e6, options=FAST)
    assert band.bandwidth == pytest.approx(96e6)
    assert band.power_watts >= line.power_watts
    assert band.power_watts < 2.0 * line.power_watts
    # A band clipped at the grid's first bin reports the span of the bins it
    # sums, 1 .. 1688, not the bandwidth asked for.
    clipped = pump_emission(canonical_f, bias, 30e9, options=FAST)
    assert clipped.bandwidth == pytest.approx(1687 * 16e6, rel=1e-12)
    assert clipped.power_watts >= band.power_watts
    assert len(line.harmonics_dbm) >= 1


@pytest.mark.xfail(
    strict=True,
    reason="FOUND in CHANGES.md: pump-only solves report converged on states unstable "
    "off the pump comb",
)
def test_emission_flags_off_lattice_unstable_pump():
    # At 0.3 ohm bias resistance the pump-only state is unstable off its
    # harmonic comb (probe ratio 1.58 per step), yet the full-grid loop stops
    # after 10 iterations and reports it converged.
    result = pump_emission(
        frankenstein_matrix(build_icta(IctaParams(bias_resistance=0.3)), DEFAULT_GRID),
        BiasPoint(f_dc=12.261e9, i_c=100e-9),
    )
    assert not result.converged


def test_emission_stable_below_instability_threshold():
    # At 0.15 ohm the pump-only state is stable off its comb: after 200 plain
    # full-grid steps an off-comb perturbation shrinks by about 0.9925 per
    # step and sits below its injected size, although the first few steps
    # grow it (the 8-step probe reads 1.02).  At 0.2 ohm it grows 1.2 per step.
    response = frankenstein_matrix(build_icta(IctaParams(bias_resistance=0.15)), DEFAULT_GRID)
    bias = BiasPoint(f_dc=12.261e9, i_c=100e-9)
    assert pump_emission(response, bias).converged
    row = junction_row(response)
    state = plain_iterate(row, bias, Stimulus.none(), SolverOptions())
    m = round(bias.f_dc / DEFAULT_GRID.spacing)
    off = np.arange(DEFAULT_GRID.size) % m != 0
    rng = np.random.default_rng(7)
    noise = np.where(off, rng.standard_normal(off.size) + 1j * rng.standard_normal(off.size), 0)
    x = state.i_j + noise * 1e-9 * bias.i_c / np.sqrt(np.sum(np.abs(noise) ** 2))
    drive = np.zeros(DEFAULT_GRID.size, dtype=complex)
    trip = _round_trip(DEFAULT_GRID.frequencies, m, bias, SolverOptions().zero_pad)
    step = _picard_step(row.f_jj, drive, trip)
    for _ in range(200):
        before = np.sum(np.abs(x[off]) ** 2)
        x = step(x, np.empty_like(x))
    after = np.sum(np.abs(x[off]) ** 2)
    assert after < before and np.sqrt(after) < 1e-9 * bias.i_c


@pytest.mark.parametrize(
    "kinds, found",
    [
        ((PortKind.current_bias(), PortKind.voltage_bias()), 0),
        ((PortKind.wave(50.0), PortKind.current_bias(), PortKind.wave(50.0)), 2),
    ],
    ids=["no-wave-port", "two-wave-ports"],
)
def test_sweeps_reject_response_without_one_wave_port(kinds, found, coarse_grid):
    # Tones enter and gains and emission are read at the one wave port, so a
    # response with none or two has no port to drive.
    n = len(kinds)
    response = ArrayResponse(np.zeros((coarse_grid.size, n, n)), kinds, coarse_grid)
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    with pytest.raises(ValueError, match=f"exactly one wave port, found {found}"):
        pump_emission(response, bias, options=FAST)
    with pytest.raises(ValueError, match=f"exactly one wave port, found {found}"):
        gain_profile(response, bias, [6.4e9], options=FAST)


def test_photon_rate_conversion():
    watts = 10.0 ** ((-105.0 - 30.0) / 10.0)
    rate = photon_rate(watts, 12.261e9)
    assert rate == pytest.approx(3.893e9, rel=1e-3)
    with pytest.raises(ValueError):
        photon_rate(1e-15, 0.0)


# ---------------------------------------------------------------- divergence


def test_diverged_point_is_masked(canonical_f, monkeypatch):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    fs = np.array([5.12e9, 5.44e9, 5.76e9])
    powers = np.linspace(-150.0, -115.0, 8)  # -140 dBm at index 2

    def run_sweeps():
        return (
            gain_profile(canonical_f, bias, fs, -140.0, options=FAST),
            gain_map_fdc(
                canonical_f, fs, [11.0e9, F_DC], 200e-9, options=FAST
            ),
            compression_sweep(canonical_f, bias, fs[1], powers, options=FAST),
        )

    clean = run_sweeps()
    real_iterate = sweeps.iterate

    def iterate(row, bias, stim, *args, **kwargs):
        # diverge at f_s = fs[1], -140 dBm on the F_DC row, and on pump-only
        # solves: an infinite f_jj on the pump bin blows up the first step.
        # The swapped row runs without the sweep's chain, which is bound to
        # the sweep's own row.
        tones = stim.tones
        if not tones or (
            bias.f_dc == F_DC and tones[0].frequency == fs[1] and tones[0].power_dbm == -140.0
        ):
            f_jj = row.f_jj.copy()
            f_jj[round(bias.f_dc / row.response.grid.spacing)] = np.inf
            row = replace(row, f_jj=f_jj)
            kwargs.pop("chain", None)
        return real_iterate(row, bias, stim, *args, **kwargs)

    monkeypatch.setattr(sweeps, "iterate", iterate)
    masked = run_sweeps()
    for got, ref, bad in zip(masked, clean, (1, (1, 1), (0, 2))):
        gain_db = got.values if isinstance(got, GainMap) else got.gain_db
        ref_gain = ref.values if isinstance(ref, GainMap) else ref.gain_db
        assert ref.converged.all()
        assert not got.converged[bad]
        assert np.isnan(gain_db[bad]) and np.isnan(got.balance_error[bad])
        keep = np.ones(gain_db.shape, dtype=bool)
        keep[bad] = False
        assert got.converged[keep].all()
        assert np.all(np.abs(gain_db[keep] - ref_gain[keep]) < 0.01)
    assert masked[0].iterations[1] == 1

    emission = pump_emission(canonical_f, bias, options=FAST)
    assert not emission.converged
    assert np.isnan(emission.power_watts) and np.isnan(emission.photon_rate)
    assert emission.harmonics_dbm and np.all(np.isnan(emission.harmonics_dbm))


# ---------------------------------------------------------------- files


def test_write_table_formats(tmp_path):
    path = tmp_path / "t.csv"
    write_table(
        path,
        ["a", "b", "flag"],
        [np.array([1.5e9]), np.array([-140.25]), np.array([True])],
    )
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,flag"
    assert lines[1] == "1.50000000000e+09,-1.40250000000e+02,1"
    with pytest.raises(ValueError):
        write_table(path, ["a"], [np.array([1.0]), np.array([2.0])])
    with pytest.raises(ValueError):
        write_table(path, ["a", "b"], [np.array([1.0]), np.array([2.0, 3.0])])


@pytest.mark.parametrize("n_rows", [0, 1, 257])
def test_write_table_matches_row_by_row_writer(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    floats[::5] = np.nan
    floats[1::7] = np.inf
    floats[2::7] = -np.inf
    columns = [
        floats,
        rng.standard_normal(n_rows).astype(np.float32),
        rng.integers(-(2**62), 2**62, n_rows),
        rng.integers(0, 5000, n_rows).astype(np.int32),
        rng.random(n_rows) < 0.5,
    ]
    header = ["f", "f32", "i64", "i32", "flag"]
    write_table(tmp_path / "fast.csv", header, columns)
    write_table_rows(tmp_path / "rows.csv", header, columns)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_profile_csv_roundtrip(tmp_path, canonical_f):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    prof = gain_profile(
        canonical_f, bias, [5.008e9, 6.4e9], -140.0, options=FAST
    )
    path = tmp_path / "profile.csv"
    write_profile_csv(prof, path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    np.testing.assert_allclose(data["f_s_hz"], prof.frequencies, rtol=1e-11)
    np.testing.assert_allclose(data["gain_db"], prof.gain_db, rtol=1e-10)
    assert data["converged"].astype(bool).all()


def test_map_csv_row_order(tmp_path):
    gmap = GainMap(
        signal_frequencies=np.array([1e9, 2e9]),
        axis_values=np.array([10e9, 11e9, 12e9]),
        axis_name="f_dc_hz",
        values=np.arange(6, dtype=float).reshape(3, 2),
        converged=np.ones((3, 2), dtype=bool),
        balance_error=np.zeros((3, 2)),
        power_dbm=-140.0,
    )
    path = tmp_path / "map.csv"
    write_map_csv(gmap, path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data.shape == (6,)
    # row-major: the bias axis varies slowest
    np.testing.assert_allclose(data["f_dc_hz"][:2], 10e9)
    np.testing.assert_allclose(data["gain_db"], np.arange(6.0))


def test_compression_csv_roundtrip(tmp_path):
    powers = np.linspace(-140.0, -110.0, 9)
    curve = CompressionCurve(
        power_in_dbm=powers,
        gain_db=np.vstack([rapp_gain_db(powers, 10.0, -101.0, 1.0)] * 2) + [[0.0], [1.0]],
        phases=np.array([0.0, np.pi / 2]),
        converged=np.arange(18).reshape(2, 9) != 4,
        balance_error=np.zeros((2, 9)),
        signal_frequency=6.4e9,
        bias=BiasPoint(f_dc=F_DC, i_c=I_C),
    )
    path = tmp_path / "curve.csv"
    write_compression_csv(curve, path)
    phases, p_in, g, converged = read_compression_csv(path)
    assert g.shape == converged.shape == (2, 9)  # unconverged points included
    np.testing.assert_array_equal(converged, curve.converged)
    np.testing.assert_allclose(phases, curve.phases)
    np.testing.assert_allclose(p_in, powers, rtol=1e-11)
    np.testing.assert_allclose(g, curve.gain_db, rtol=1e-10)


@pytest.mark.parametrize("phases", [[0.0], np.linspace(0.0, np.pi, 8, endpoint=False), [0.0, 0.0]])
def test_compression_csv_reads_back_the_curve(tmp_path, phases):
    # Rows are the runs of one power axis in file order, so a repeated phase
    # still reads back as two rows; unconverged points keep their NaN gain.
    powers = np.linspace(-140.0, -110.0, 8)
    phases = np.asarray(phases)
    converged = np.random.default_rng(3).random((phases.size, 8)) > 0.3
    gain_db = np.where(converged, rapp_gain_db(powers, 10.0, -101.0, 1.0) + phases[:, None], np.nan)
    curve = CompressionCurve(
        power_in_dbm=powers,
        gain_db=gain_db,
        phases=phases,
        converged=converged,
        balance_error=np.zeros_like(gain_db),
        signal_frequency=6.0e9,
        bias=BiasPoint(f_dc=F_DC, i_c=I_C),
    )
    path = tmp_path / "curve.csv"
    write_compression_csv(curve, path)
    read_phases, p_in, g, read_converged = read_compression_csv(path)
    np.testing.assert_array_equal(read_converged, converged)
    np.testing.assert_allclose(read_phases, phases, rtol=1e-11)
    np.testing.assert_allclose(p_in, powers, rtol=1e-11)
    np.testing.assert_allclose(g, gain_db, rtol=1e-10)  # NaN where NaN


@pytest.mark.parametrize(
    "rows",
    [
        [],  # no data
        [(0.0, -120.0), (0.0, -110.0), (0.0, -120.0)],  # a short second run
        [(0.0, -120.0), (0.0, -110.0), (0.0, -120.0), (0.0, -100.0)],  # another axis
        [(0.0, -120.0), (1.0, -110.0)],  # the phase changes within a run
    ],
)
def test_compression_csv_rejects_other_layouts(tmp_path, rows):
    path = tmp_path / "curve.csv"
    lines = ["phase_rad,power_in_dbm,gain_db,converged,balance_error"]
    lines += [f"{theta},{p},10.0,1,0.0" for theta, p in rows]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="runs of one power axis"):
        read_compression_csv(path)


def test_sidecar_serializes_arrays(tmp_path):
    path = tmp_path / "meta.json"
    write_sidecar(path, {"axis": np.array([1.0, 2.0]), "count": np.int64(3)})
    data = json.loads(path.read_text())
    assert data["tool"] == "ictasim"
    assert data["axis"] == [1.0, 2.0]
    assert data["count"] == 3
    assert "version" in data
