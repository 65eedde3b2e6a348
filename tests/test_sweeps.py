"""Sweep orchestration, saturation-model fitting, and emission tests."""

import json

import numpy as np
import pytest
from scipy.optimize import brentq

from ictasim import sweeps
from ictasim.solver import BiasPoint, DivergenceError
from ictasim.sweeps import (
    CompressionCurve,
    FitFailedError,
    GainMap,
    NotFittableError,
    RappFit,
    SolverOptions,
    compression_sweep,
    gain_map_fdc,
    gain_map_ic,
    gain_profile,
    p1db,
    photon_rate,
    plateau_metrics,
    pump_emission,
    rapp_fit,
    rapp_gain_db,
    rapp_output_watts,
    raw_p1db,
    read_compression_csv,
    write_compression_csv,
    write_map_csv,
    write_profile_csv,
    write_sidecar,
    write_table,
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
    fit = RappFit(gain=10.0 ** (13.0 / 10.0), p_sat=1e-13, knee=1.4, residual_db=0.0)
    p_in_dbm = np.linspace(-130.0, -95.0, 12)
    p_in_w = 10.0 ** ((p_in_dbm - 30.0) / 10.0)
    out_w = rapp_output_watts(p_in_w, fit)
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


def test_profile_metrics_and_mask(canonical_f, coarse_grid):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    fs = np.arange(4.0e9, 8.0e9 + 1, 0.32e9)
    prof = gain_profile(canonical_f, bias, fs, -140.0, grid=coarse_grid, options=FAST)
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


def test_profile_warm_equals_cold(canonical_f, coarse_grid):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    fs = np.arange(5.0e9, 6.6e9, 0.32e9)
    chained = gain_profile(canonical_f, bias, fs, -140.0, grid=coarse_grid, options=FAST)
    for k, f in enumerate(fs):
        cold = gain_profile(canonical_f, bias, [f], -140.0, grid=coarse_grid, options=FAST)
        assert abs(cold.gain_db[0] - chained.gain_db[k]) < 0.01


def test_profile_masks_budget_exhaustion(canonical_f, coarse_grid):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    starved = SolverOptions(max_iterations=2)
    prof = gain_profile(
        canonical_f, bias, [5.008e9, 6.4e9], -140.0, grid=coarse_grid, options=starved
    )
    assert not prof.converged.any()
    assert np.isnan(prof.gain_db).all()
    assert prof.bandwidth_hz == 0.0


def test_profile_rejects_off_grid_axis(canonical_f, coarse_grid):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    with pytest.raises(ValueError):
        gain_profile(canonical_f, bias, [40.0e9], grid=coarse_grid)
    with pytest.raises(ValueError):
        gain_profile(canonical_f, bias, [5e9, 5e9], grid=coarse_grid)


# ---------------------------------------------------------------- gain maps


def test_map_zero_critical_current_is_flat(canonical_f, coarse_grid):
    fs = np.arange(4.0e9, 7.0e9, 0.64e9)
    fdc = np.array([10.0e9, 12.0e9])
    gmap = gain_map_fdc(canonical_f, fs, fdc, 0.0, grid=coarse_grid, options=FAST)
    assert gmap.converged.all()
    np.testing.assert_allclose(gmap.values, 0.0, atol=1e-6)


def test_map_parallel_rows_identical(canonical_f, coarse_grid):
    fs = np.arange(4.0e9, 7.5e9, 0.48e9)
    fdc = np.array([11.0e9, 12.0e9, 13.0e9])
    serial = gain_map_fdc(
        canonical_f, fs, fdc, 200e-9, grid=coarse_grid, options=FAST, workers=1
    )
    threaded = gain_map_fdc(
        canonical_f, fs, fdc, 200e-9, grid=coarse_grid, options=FAST, workers=3
    )
    assert np.array_equal(serial.values, threaded.values, equal_nan=True)
    assert np.array_equal(serial.converged, threaded.converged)


def test_map_signal_idler_reciprocity(canonical_f, coarse_grid):
    # the idler of bin 300 at m=750 is bin 450: 4.8 GHz vs 7.2 GHz
    fs = np.array([4.8e9, 7.2e9])
    gmap = gain_map_fdc(canonical_f, fs, [F_DC], I_C, grid=coarse_grid, options=FAST)
    assert gmap.converged.all()
    assert abs(gmap.values[0, 0] - gmap.values[0, 1]) < 0.1


def test_map_gain_rises_with_critical_current(canonical_f, coarse_grid):
    ics = np.array([50e-9, 120e-9, 200e-9, 280e-9])
    gmap = gain_map_ic(canonical_f, [6.4e9], ics, F_DC, grid=coarse_grid, options=FAST)
    assert gmap.axis_name == "i_c_a"
    assert gmap.converged.all()
    assert np.all(np.diff(gmap.values[:, 0]) > 0)


def test_map_rejects_bias_beyond_half_grid(canonical_f, coarse_grid):
    with pytest.raises(ValueError):
        gain_map_fdc(canonical_f, [5e9], [40.0e9], I_C, grid=coarse_grid)


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


# ---------------------------------------------------------------- compression


def test_compression_linear_regime_flat(canonical_f, coarse_grid):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    powers = np.linspace(-150.0, -136.0, 8)
    curve = compression_sweep(
        canonical_f, bias, 6.4e9, powers, grid=coarse_grid, options=FAST
    )
    assert not curve.degenerate
    assert curve.gain_db.shape == (1, 8)
    assert curve.converged.all()
    assert np.ptp(curve.gain_db[0]) < 0.05


def test_compression_fit_recovers_saturation(canonical_f, coarse_grid):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    powers = np.linspace(-135.0, -100.0, 15)
    curve = compression_sweep(
        canonical_f, bias, 6.4e9, powers, grid=coarse_grid, options=FAST
    )
    fit = rapp_fit(curve)
    point = p1db(fit)
    assert curve.gain_db[0, 0] - 2.0 < fit.gain_db < curve.gain_db[0, 0] + 2.0
    assert -120.0 < point < -105.0
    raw = raw_p1db(curve.power_in_dbm, curve.gain_db[0])
    assert abs(point - raw) < 3.0


def test_degenerate_compression_splits_by_phase(canonical_f, coarse_grid):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    powers = np.linspace(-144.0, -130.0, 8)
    curve = compression_sweep(
        canonical_f, bias, 6.0e9, powers, grid=coarse_grid, options=FAST
    )
    assert curve.degenerate
    assert curve.phases.size == 8
    low, high = curve.envelope()
    assert np.all(high - low > 3.0)
    with pytest.raises(FitFailedError):
        rapp_fit(curve)


def test_compression_rejects_short_power_axis(canonical_f, coarse_grid):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    with pytest.raises(ValueError):
        compression_sweep(
            canonical_f, bias, 6.4e9, np.linspace(-140.0, -120.0, 5), grid=coarse_grid
        )
    with pytest.raises(ValueError):
        compression_sweep(
            canonical_f, bias, 6.4e9, np.full(9, -120.0), grid=coarse_grid
        )
    with pytest.raises(ValueError):
        compression_sweep(
            canonical_f, bias, 6.4e9, np.linspace(-140.0, -120.0, 8), grid=coarse_grid,
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


# ---------------------------------------------------------------- emission


def test_emission_zero_without_junction(canonical_f, coarse_grid):
    result = pump_emission(
        canonical_f, BiasPoint(f_dc=F_DC, i_c=0.0), grid=coarse_grid, options=FAST
    )
    assert result.converged
    assert result.power_watts == 0.0
    assert result.power_dbm == float("-inf")
    assert result.photon_rate == 0.0


def test_emission_monotone_in_critical_current(canonical_f, coarse_grid):
    rates = []
    for i_c in (50e-9, 100e-9, 200e-9, 280e-9):
        result = pump_emission(
            canonical_f, BiasPoint(f_dc=F_DC, i_c=i_c), grid=coarse_grid, options=FAST
        )
        assert result.converged
        rates.append(result.photon_rate)
    assert np.all(np.diff(rates) > 0)


def test_emission_band_integration_contains_line(canonical_f, coarse_grid):
    bias = BiasPoint(f_dc=F_DC, i_c=200e-9)
    line = pump_emission(canonical_f, bias, 0.0, grid=coarse_grid, options=FAST)
    band = pump_emission(canonical_f, bias, 96e6, grid=coarse_grid, options=FAST)
    assert band.bandwidth == pytest.approx(96e6)
    assert band.power_watts >= line.power_watts
    assert band.power_watts < 2.0 * line.power_watts
    assert len(line.harmonics_dbm) >= 1


def test_photon_rate_conversion():
    watts = 10.0 ** ((-105.0 - 30.0) / 10.0)
    rate = photon_rate(watts, 12.261e9)
    assert rate == pytest.approx(3.893e9, rel=1e-3)
    with pytest.raises(ValueError):
        photon_rate(1e-15, 0.0)


# ---------------------------------------------------------------- divergence


def test_diverged_point_is_masked(canonical_f, coarse_grid, monkeypatch):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    fs = np.array([5.12e9, 5.44e9, 5.76e9])
    powers = np.linspace(-150.0, -115.0, 8)  # -140 dBm at index 2

    def run_sweeps():
        return (
            gain_profile(canonical_f, bias, fs, -140.0, grid=coarse_grid, options=FAST),
            gain_map_fdc(
                canonical_f, fs, [11.0e9, F_DC], 200e-9, grid=coarse_grid, options=FAST
            ),
            compression_sweep(canonical_f, bias, fs[1], powers, grid=coarse_grid, options=FAST),
        )

    clean = run_sweeps()
    real_iterate = sweeps.iterate

    def iterate(row, bias, stim, **kwargs):
        # diverge at f_s = fs[1], -140 dBm on the F_DC row, and on pump-only solves
        tones = stim.tones
        if not tones or (
            bias.f_dc == F_DC and tones[0].frequency == fs[1] and tones[0].power_dbm == -140.0
        ):
            raise DivergenceError("forced divergence", 7)
        return real_iterate(row, bias, stim, **kwargs)

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
    assert masked[0].iterations[1] == 7

    emission = pump_emission(canonical_f, bias, grid=coarse_grid, options=FAST)
    assert not emission.converged
    assert np.isnan(emission.power_watts) and np.isnan(emission.photon_rate)


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


def test_profile_csv_roundtrip(tmp_path, canonical_f, coarse_grid):
    bias = BiasPoint(f_dc=F_DC, i_c=I_C)
    prof = gain_profile(
        canonical_f, bias, [5.008e9, 6.4e9], -140.0, grid=coarse_grid, options=FAST
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
        converged=np.ones((2, 9), dtype=bool),
        balance_error=np.zeros((2, 9)),
        signal_frequency=6.4e9,
        bias=BiasPoint(f_dc=F_DC, i_c=I_C),
    )
    path = tmp_path / "curve.csv"
    write_compression_csv(curve, path)
    phases, p_in, g = read_compression_csv(path)
    assert phases.size == 18
    np.testing.assert_allclose(np.unique(phases), curve.phases)
    np.testing.assert_allclose(p_in[:9], powers, rtol=1e-11)
    np.testing.assert_allclose(g, curve.gain_db.ravel(), rtol=1e-10)


def test_sidecar_serializes_arrays(tmp_path):
    path = tmp_path / "meta.json"
    write_sidecar(path, {"axis": np.array([1.0, 2.0]), "count": np.int64(3)})
    data = json.loads(path.read_text())
    assert data["tool"] == "ictasim"
    assert data["axis"] == [1.0, 2.0]
    assert data["count"] == 3
    assert "version" in data
