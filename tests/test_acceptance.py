"""Acceptance suite: one test per shipped acceptance criterion.

Run `pytest tests/test_acceptance.py -v -s` to get one PASS/FAIL line per
criterion with the measured numbers next to the stated tolerance. The suite
solves a few thousand nonlinear steady states at full resolution and takes
about 35 s on a 2-CPU Xeon; expensive artifacts are built once in module
fixtures and shared (the canonical profile feeds criteria 1, 4 and 9; the
gain map and cable profiles feed criteria 2, 3 and 4).

Criterion 3 is expected to stay red and is left failing on purpose: its
target windows equal the bare cable round trip v/(2L), while the simulated
standing wave also rides on the amplifier's input reflection delay, which
lowers the period by 6-20 percent. The supplement test directly after it
pins the physics that does hold (periods below the bare-cable values, and
both cables implying the same excess delay). See README for the analysis.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import ndimage
from scipy.constants import e as E_CHARGE
from scipy.constants import hbar as HBAR
from scipy.special import jv

from ictasim.circuit import (
    DEFAULT_GRID,
    FrequencyGrid,
    IctaParams,
    build_icta,
    frankenstein_matrix,
)
from ictasim.design import band_check
from ictasim.frankenstein import PortKind, junction_row, to_frankenstein
from ictasim.solver import (
    BiasPoint,
    Stimulus,
    dbm_to_watts,
    iterate,
    power_balance,
)
from ictasim.sweeps import (
    SolverOptions,
    compression_sweep,
    gain_map_fdc,
    gain_profile,
    p1db,
    photon_rate,
    pump_emission,
    rapp_fit,
    rapp_gain_db,
)
from oracles import (
    ArrayResponse,
    bin_power_dbm,
    from_frankenstein,
    solve,
    to_spectrum,
    to_time,
)

CANONICAL = IctaParams()
BIAS_280 = BiasPoint(f_dc=12e9, i_c=280e-9)
PROFILE_POINTS = np.arange(4.0e9, 8.0e9 + 1, 160e6)
COMPRESSION_POWERS = np.arange(-135.0, -101.0, 3.0)


def _line(criterion, ok, detail):
    # One summary line per criterion, printed before the asserts so a FAIL
    # still reports its measured numbers under `pytest -s`.
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def _rel(actual, expected):
    scale = np.max(np.abs(expected))
    if scale == 0.0:
        return float(np.max(np.abs(actual)))
    return float(np.max(np.abs(actual - expected)) / scale)


# ---------------------------------------------------------------------------
# shared artifacts


@pytest.fixture(scope="module")
def full_response():
    net = build_icta(CANONICAL)
    return net, frankenstein_matrix(net, DEFAULT_GRID)


@pytest.fixture(scope="module")
def profile_full(full_response):
    _, resp = full_response
    t0 = time.perf_counter()
    prof = gain_profile(resp, BIAS_280, PROFILE_POINTS, -140.0)
    return prof, time.perf_counter() - t0


@pytest.fixture(scope="module")
def compression_set(full_response, profile_full):
    _, resp = full_response
    prof, _ = profile_full
    inside = prof.frequencies[
        (prof.frequencies >= prof.band_lo_hz) & (prof.frequencies <= prof.band_hi_hz)
    ]
    pick = inside[np.round(np.linspace(0, inside.size - 1, 5)).astype(int)]
    # stay off the degenerate point, where gain is phase sensitive
    assert np.all(np.abs(pick - BIAS_280.f_dc / 2) > 1e6)
    t0 = time.perf_counter()
    curves = []
    for f_s in pick:
        curve = compression_sweep(resp, BIAS_280, f_s, COMPRESSION_POWERS)
        curves.append((f_s, curve, rapp_fit(curve)))
    return curves, time.perf_counter() - t0


@pytest.fixture(scope="module")
def gain_map():
    # Fine enough to resolve the feature lines, with f_max/2 above the
    # highest pump frequency on the map. Every pump frequency is an even bin
    # (placing f_dc/2 on the signal axis) and a multiple of the column step
    # (placing f_dc itself on the signal axis).
    grid = FrequencyGrid(20e6, 2048)
    net = build_icta(CANONICAL)
    resp = frankenstein_matrix(net, grid)
    fs = np.arange(3.2e9, 9.6e9 + 1, 160e6)
    fdc = np.arange(8.0e9, 17.92e9 + 1, 320e6)
    gmap = gain_map_fdc(
        resp, fs, fdc, 200e-9, -140.0,
        options=SolverOptions(max_iterations=2500),
    )
    return gmap, band_check(net, grid.frequencies)


def _ripple_period(freqs, gain_db):
    """Dominant ripple period of a gain trace, via the delay-domain peak."""
    g = gain_db - np.polyval(np.polyfit(freqs, gain_db, 2), freqs)
    pad = 1 << 14
    spec = np.abs(np.fft.rfft(g * np.hanning(g.size), pad))
    tau = np.fft.rfftfreq(pad, freqs[1] - freqs[0])
    k0 = np.searchsorted(tau, 0.6e-9)  # skip leakage from the slow envelope
    k = k0 + int(np.argmax(spec[k0:]))
    a, b, c = spec[k - 1], spec[k], spec[k + 1]
    delta = 0.5 * (a - c) / (a - 2 * b + c)
    return 1.0 / ((k + delta) * tau[1])


@pytest.fixture(scope="module")
def cable_profiles():
    grid = FrequencyGrid(16e6, 2048)
    pts = np.arange(4.4e9, 7.6e9 + 1, 80e6)
    bias = BiasPoint(f_dc=12e9, i_c=150e-9)
    opts = SolverOptions(max_iterations=4000)
    out = {}
    for length in (0.330, 0.100):
        params = replace(
            CANONICAL,
            cable_impedance=55.0,
            cable_length=length,
            cable_velocity_factor=2**-0.5,
        )
        prof = gain_profile(frankenstein_matrix(build_icta(params), grid), bias, pts, options=opts)
        out[length] = (prof, _ripple_period(prof.frequencies, prof.gain_db))
    return out


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_canonical_gain_bandwidth_and_saturation(profile_full, compression_set):
    """f_dc 12 GHz, I_c 280 nA, -140 dBm: average gain 10 +/- 1.5 dB over a
    contiguous >= 10 dB plateau of 3.25 GHz +/- 15 percent; mean fitted P1dB
    across that band -113 +/- 3 dBm; profile plus compression set under ten
    minutes."""
    prof, t_prof = profile_full
    curves, t_comp = compression_set
    p1 = float(np.mean([p1db(fit) for _, _, fit in curves]))
    runtime = t_prof + t_comp
    ok = (
        abs(prof.average_gain_db - 10.0) <= 1.5
        and abs(prof.bandwidth_hz - 3.25e9) <= 0.15 * 3.25e9
        and abs(p1 - (-113.0)) <= 3.0
        and runtime < 600.0
    )
    _line(
        1, ok,
        f"avg gain {prof.average_gain_db:.2f} dB (10 +/- 1.5), "
        f"plateau {prof.bandwidth_hz / 1e9:.2f} GHz (3.25 +/- 15%), "
        f"mean fitted P1dB {p1:.1f} dBm (-113 +/- 3), "
        f"runtime {runtime:.0f} s (< 600)",
    )
    assert prof.converged.all()
    assert abs(prof.average_gain_db - 10.0) <= 1.5
    assert abs(prof.bandwidth_hz - 3.25e9) <= 0.15 * 3.25e9
    assert abs(p1 - (-113.0)) <= 3.0
    assert runtime < 600.0


def test_criterion_2_gain_map_topology(gain_map):
    """I_c 200 nA map: (a) one connected high-gain region confined to the
    parallelogram where both signal and idler sit in the matched band,
    (b) a feature line along f_dc = f_s, (c) a phase-sensitive feature line
    along f_dc = 2 f_s. Feature extraction, not pixel comparison."""
    gmap, band = gain_map
    fs, fdc = gmap.signal_frequencies, gmap.axis_values
    vals = np.where(gmap.converged, gmap.values, np.nan)
    pump_cell = np.isclose(fdc[:, None], fs[None, :])

    # (a) high-gain cells: inside the band parallelogram, one blob
    high = gmap.converged & (gmap.values >= 7.0) & ~pump_cell
    slack = fs[1] - fs[0]
    f_i = fdc[:, None] - fs[None, :]
    inside = (
        (fs[None, :] >= band.band_lo_hz - slack)
        & (fs[None, :] <= band.band_hi_hz + slack)
        & (f_i >= band.band_lo_hz - slack)
        & (f_i <= band.band_hi_hz + slack)
    )
    n_outside = int((high & ~inside).sum())
    labels, n_blobs = ndimage.label(high, structure=np.ones((3, 3)))
    sizes = ndimage.sum(high, labels, range(1, n_blobs + 1)) if n_blobs else [0]
    blob_frac = float(np.max(sizes) / max(high.sum(), 1))

    # (b) pump line: cells on f_dc == f_s dominate their row
    pump_excess = []
    for i, j in np.argwhere(pump_cell):
        rest = np.delete(vals[i], j)
        pump_excess.append(vals[i, j] - np.nanmedian(rest))
    pump_excess = np.array(pump_excess)

    # (c) degenerate line: anomaly (spike or dip, the response is phase
    # sensitive there) at f_s == f_dc / 2 against the neighbor average
    anomalies = []
    for i, f_d in enumerate(fdc):
        j = int(np.argmin(np.abs(fs - f_d / 2)))
        if abs(fs[j] - f_d / 2) > 1.0 or j in (0, fs.size - 1):
            continue
        trio = vals[i, j - 1 : j + 2]
        if np.isfinite(trio).all():
            anomalies.append(trio[1] - 0.5 * (trio[0] + trio[2]))
    anomalies = np.abs(anomalies)

    ok = (
        gmap.converged.mean() >= 0.95
        and high.sum() >= 50
        and n_outside == 0
        and blob_frac >= 0.9
        and pump_excess.size >= 5
        and np.all(pump_excess > 20.0)
        and anomalies.size >= 20
        and np.median(anomalies) > 1.0
        and np.mean(anomalies > 0.5) >= 0.75
    )
    _line(
        2, ok,
        f"{int(high.sum())} high-gain cells, {n_outside} outside the band "
        f"parallelogram, largest blob {blob_frac:.0%}; pump line excess "
        f"{pump_excess.min():.1f} dB min (> 20); degenerate-line anomaly "
        f"median {np.median(anomalies):.1f} dB, {np.mean(anomalies > 0.5):.0%} "
        f"of rows > 0.5 dB",
    )
    assert gmap.converged.mean() >= 0.95
    assert high.sum() >= 50
    assert n_outside == 0
    assert blob_frac >= 0.9
    assert pump_excess.size >= 5 and np.all(pump_excess > 20.0)
    assert anomalies.size >= 20
    assert np.median(anomalies) > 1.0
    assert np.mean(anomalies > 0.5) >= 0.75


def test_criterion_3_input_cable_ripple_periods(cable_profiles):
    """Gain ripple period 320 +/- 10 MHz with the 330 mm input cable and
    1.06 +/- 0.1 GHz with the 100 mm cable (55 ohm, velocity c/sqrt(2)).

    Expected to FAIL: these windows equal the bare cable round trip v/(2L).
    The simulated standing wave adds the amplifier's input reflection group
    delay (about 0.24 ns) to the cable round trip, so the faithful result
    sits below both windows. The supplement test below pins the physics."""
    (p330, period_330) = cable_profiles[0.330]
    (p100, period_100) = cable_profiles[0.100]
    assert p330.converged.all() and p100.converged.all()
    ok = abs(period_330 - 320e6) <= 10e6 and abs(period_100 - 1.06e9) <= 0.1e9
    _line(
        3, ok,
        f"ripple period {period_330 / 1e6:.1f} MHz (target 320 +/- 10) and "
        f"{period_100 / 1e6:.0f} MHz (target 1060 +/- 100); known red: "
        f"targets ignore the amplifier's own reflection delay",
    )
    assert abs(period_330 - 320e6) <= 10e6, (
        f"330 mm cable ripple period {period_330 / 1e6:.1f} MHz vs target "
        f"320 +/- 10 MHz. The target is v/(2L) for the cable alone; the "
        f"simulated period 1/(2 tau_cable + tau_network) includes the "
        f"amplifier input-reflection delay and lands lower. See README."
    )
    assert abs(period_100 - 1.06e9) <= 0.1e9


def test_criterion_3_supplement_ripple_delay_physics(cable_profiles):
    """What the ripple actually obeys: the extractor is exact on synthetic
    data; both measured periods sit below the bare-cable values; and the
    excess delay 1/period - 2L/v is a property of the amplifier alone, so
    both cables must imply the same value."""
    pts = np.arange(4.4e9, 7.6e9 + 1, 80e6)
    for true_period in (320e6, 1.06e9):
        synth = 10.0 + 1.5 * np.cos(2 * np.pi * pts / true_period + 0.7)
        synth -= 0.2 * ((pts - 6e9) / 1e9) ** 2
        assert abs(_ripple_period(pts, synth) - true_period) <= 0.01 * true_period

    velocity = 299792458.0 * 2**-0.5
    extras = {}
    for length, (prof, period) in cable_profiles.items():
        assert np.ptp(prof.gain_db) > 3.0  # the ripple is a real feature
        assert period < velocity / (2 * length)
        extras[length] = 1.0 / period - 2 * length / velocity
    mismatch = abs(extras[0.330] - extras[0.100]) / extras[0.330]
    _line(
        "3s", mismatch <= 0.15,
        f"excess delay {extras[0.330] * 1e12:.0f} ps (330 mm) vs "
        f"{extras[0.100] * 1e12:.0f} ps (100 mm), mismatch {mismatch:.1%} "
        f"(<= 15%); both periods below the bare-cable values",
    )
    assert mismatch <= 0.15


def test_criterion_4_power_conservation(profile_full, compression_set, gain_map, cable_profiles):
    """Every converged solve behind criteria 1-3 balances net RF output
    against the DC bias input to 1e-8 relative."""
    prof, _ = profile_full
    curves, _ = compression_set
    gmap, _ = gain_map
    worst, count = 0.0, 0
    pools = [(prof.balance_error, prof.converged)]
    pools += [(c.balance_error, c.converged) for _, c, _ in curves]
    pools.append((gmap.balance_error, gmap.converged))
    pools += [(p.balance_error, p.converged) for p, _ in cable_profiles.values()]
    for err, conv in pools:
        if conv.any():
            worst = max(worst, float(np.max(err[conv])))
            count += int(conv.sum())
    ok = worst <= 1e-8 and count >= 1000
    _line(4, ok, f"max relative imbalance {worst:.2e} over {count} converged solves (<= 1e-8)")
    assert count >= 1000
    assert worst <= 1e-8


def test_criterion_5_response_matrix_identities():
    """Mixed-boundary response matrix identities to 1e-10 relative, in
    under ten seconds: matched wave ports reproduce S; one-port closed
    forms for every port kind; scattering round trip; independence from
    the reference impedance."""
    rng = np.random.default_rng(20260814)
    freqs1 = np.array([5e9])
    freqs3 = np.array([4e9, 5e9, 6e9])

    def random_s(n_f, p):
        return 0.25 * (
            rng.standard_normal((n_f, p, p)) + 1j * rng.standard_normal((n_f, p, p))
        )

    t0 = time.perf_counter()
    worst = 0.0

    for p in (1, 2, 3, 4):
        s = random_s(1, p)
        f = to_frankenstein(s, [PortKind.wave(50.0)] * p, z0=50.0, frequencies=freqs1)
        worst = max(worst, _rel(f, s))

    for r in (12.0, 50.0, 81.7, 240.0):
        s = np.full((1, 1, 1), (r - 50.0) / (r + 50.0), dtype=complex)
        f_v = to_frankenstein(s, [PortKind.voltage_bias()], frequencies=freqs1)
        f_c = to_frankenstein(s, [PortKind.current_bias()], frequencies=freqs1)
        worst = max(worst, _rel(f_v, 1.0 / r), _rel(f_c, r))
        for z_i in (30.0, 75.0):
            f_w = to_frankenstein(s, [PortKind.wave(z_i)], frequencies=freqs1)
            worst = max(worst, _rel(f_w, (r - z_i) / (r + z_i)))

    choices = [
        PortKind.wave(50.0),
        PortKind.wave(80.0),
        PortKind.voltage_bias(),
        PortKind.current_bias(),
    ]
    for _ in range(40):
        p = int(rng.integers(2, 6))
        kinds = [choices[int(rng.integers(len(choices)))] for _ in range(p)]
        s = random_s(freqs3.size, p)
        fm = to_frankenstein(s, kinds, z0=50.0, frequencies=freqs3)
        worst = max(worst, _rel(from_frankenstein(fm, kinds, z0=50.0), s))
        # the same physical network (a random reciprocal impedance matrix)
        # expressed against two scattering references converts identically
        c = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        z_net = c + c.T + 6.0 * np.eye(p)
        per_ref = []
        for z0 in (50.0, 31.4):
            s_ref = np.linalg.solve(
                (z_net + z0 * np.eye(p)).T, (z_net - z0 * np.eye(p)).T
            ).T
            per_ref.append(to_frankenstein(s_ref[np.newaxis], kinds, z0=z0, frequencies=freqs1))
        worst = max(worst, _rel(per_ref[0], per_ref[1]))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _line(5, ok, f"worst identity error {worst:.1e} (<= 1e-10), {elapsed:.2f} s (< 10)")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_6_solver_oracles():
    """Solver ground truths: a linear junction (I_c = 0) converges in one
    iteration; weak phase modulation produces first-order sidebands with
    Bessel weights to 1 percent; the stored spectra describe a real signal
    (Hermitian symmetry) at every iteration count, to machine precision."""
    grid = FrequencyGrid(16e6, 2048)
    resp = frankenstein_matrix(build_icta(CANONICAL), grid)
    stim = Stimulus.single(6e9, -140.0)

    linear = solve(resp, BiasPoint(f_dc=12e9, i_c=0.0), stim)
    one_shot = linear.converged and linear.iterations == 1 and not np.any(linear.i_j)

    # zero-feedback junction row: the drive phase-modulates the ramp and the
    # sideband ladder must carry Bessel-function weights
    values = np.zeros((grid.size, 2, 2), dtype=complex)
    values[:, 1, 0] = 1.0
    kinds = (PortKind.wave(50.0), PortKind.current_bias())
    row = junction_row(ArrayResponse(values, kinds, grid))
    f_m, i_c = 320e6, 280e-9
    k = int(round(f_m / grid.spacing))
    m = int(round(12e9 / grid.spacing))
    sideband_err = 0.0
    for depth in (0.05, 0.02):
        amp = depth * HBAR * 2 * np.pi * f_m / (4 * E_CHARGE)
        state = iterate(
            row,
            BiasPoint(f_dc=12e9, i_c=i_c),
            Stimulus.single(f_m, bin_power_dbm(amp, 50.0)),
        )
        assert state.converged
        expected = i_c * abs(jv(1, depth)) / 2
        for sign in (+1, -1):
            got = abs(state.i_j[m + sign * k])
            sideband_err = max(sideband_err, abs(got - expected) / expected)

    # Hermitian symmetry after every iteration count: DC bins stay real and
    # the spectrum round-trips through a real time-domain signal
    hermitian_err = 0.0
    for cap in (1, 2, 3, 5, 8):
        state = solve(resp, BIAS_280, stim, max_iterations=cap)
        assert state.iterations == cap or state.converged
        hermitian_err = max(
            hermitian_err,
            abs(state.i_j[0].imag) / BIAS_280.i_c,
            abs(state.v_j[0].imag) / float(np.max(np.abs(state.v_j))),
        )
        i_t = to_time(state.i_j, grid=grid, zero_pad=state.zero_pad)
        assert np.isrealobj(i_t)
        back = to_spectrum(i_t, grid)
        hermitian_err = max(
            hermitian_err,
            float(np.max(np.abs(back - state.i_j))) / BIAS_280.i_c,
        )

    ok = one_shot and sideband_err <= 0.01 and hermitian_err < 1e-14
    _line(
        6, ok,
        f"I_c=0 one-iteration convergence {one_shot}; worst sideband error "
        f"{sideband_err:.2%} (<= 1%); Hermitian residual {hermitian_err:.1e}",
    )
    assert one_shot
    assert sideband_err <= 0.01
    assert hermitian_err < 1e-14


def test_criterion_7_saturation_fit_roundtrip():
    """Saturation-model fits recover gain, saturation power and knee
    sharpness within 2 percent from synthetic curves carrying 0.05 dB of
    gain noise, across a 3 x 3 x 3 parameter grid."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for g0_db in (5.0, 10.0, 20.0):
        for psat_dbm in (-110.0, -103.0, -96.0):
            for knee in (0.8, 1.2, 2.0):
                knee_in = psat_dbm - g0_db
                p_in = np.linspace(knee_in - 25.0, knee_in + 15.0, 3001)
                clean = rapp_gain_db(p_in, g0_db, psat_dbm, knee)
                fit = rapp_fit(p_in, clean + rng.normal(0.0, 0.05, p_in.size))
                errs = (
                    abs(fit.gain - 10.0 ** (g0_db / 10.0)) / 10.0 ** (g0_db / 10.0),
                    abs(fit.p_sat - dbm_to_watts(psat_dbm)) / dbm_to_watts(psat_dbm),
                    abs(fit.knee - knee) / knee,
                )
                worst = max(worst, *errs)
    ok = worst <= 0.02
    _line(7, ok, f"worst parameter error {worst:.2%} over 27 triples (<= 2%)")
    assert worst <= 0.02


def test_criterion_8_pump_emission_consistency():
    """The power-to-photon-rate conversion reproduces the quoted
    -105 dBm ~ 3.5e9 photons/s correspondence at 12.261 GHz within
    one-significant-figure rounding, and emission at the pump frequency
    grows monotonically with critical current below threshold."""
    rate = photon_rate(dbm_to_watts(-105.0), 12.261e9)
    arithmetic_ok = abs(rate - 3.5e9) <= 0.5e9

    rates = []
    for i_c in (70e-9, 140e-9, 210e-9, 280e-9):
        res = pump_emission(
            frankenstein_matrix(build_icta(CANONICAL), DEFAULT_GRID),
            BiasPoint(f_dc=12.261e9, i_c=i_c),
        )
        assert res.converged
        rates.append(res.photon_rate)
    monotone = bool(np.all(np.diff(rates) > 0.0))

    ok = arithmetic_ok and monotone
    _line(
        8, ok,
        f"-105 dBm at 12.261 GHz -> {rate / 1e9:.2f}e9 photons/s "
        f"(3.5e9 +/- 0.5e9); emission rates {['%.2e' % r for r in rates]} "
        f"monotone={monotone}",
    )
    assert arithmetic_ok
    assert monotone


def test_criterion_9_grid_halving(full_response, profile_full):
    """Halving the frequency spacing (doubling the grid) moves the
    criterion-1 average gain by less than 0.1 dB."""
    prof, _ = profile_full
    net, _ = full_response
    half = FrequencyGrid(DEFAULT_GRID.spacing / 2, DEFAULT_GRID.size * 2)
    prof_half = gain_profile(frankenstein_matrix(net, half), BIAS_280, PROFILE_POINTS, -140.0)
    delta = abs(prof_half.average_gain_db - prof.average_gain_db)
    ok = delta < 0.1
    _line(
        9, ok,
        f"average gain {prof.average_gain_db:.3f} dB -> "
        f"{prof_half.average_gain_db:.3f} dB on the halved grid, "
        f"delta {delta:.2e} dB (< 0.1)",
    )
    assert prof_half.converged.all()
    assert delta < 0.1
