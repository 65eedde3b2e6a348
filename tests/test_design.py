"""Canonical parameter set, flux tuning, and band diagnostics."""

import numpy as np
import pytest

from ictasim.circuit import Netlist
from ictasim.design import (
    MAX_JUNCTION_CRITICAL_CURRENT,
    MAX_SQUID_CRITICAL_CURRENT,
    DesignTargets,
    FluxBias,
    band_check,
    canonical_icta,
    ic_of_flux,
)


def test_canonical_component_values():
    params = canonical_icta()
    assert params.tank_inductance == 1.38e-9
    assert params.tank_capacitance == 530e-15
    assert params.series_inductance == 1.94e-9
    assert params.series_capacitance == 373e-15
    assert params.line_impedance == 58.8
    assert params.line_quarter_wave_frequency == 5.88e9
    assert params.wave_port_impedance == 50.0
    assert params.junction_capacitance == 0.0
    assert params.cable_length == 0.0


def test_current_scale_constants():
    assert MAX_JUNCTION_CRITICAL_CURRENT == 600e-9
    assert MAX_SQUID_CRITICAL_CURRENT == pytest.approx(2 * MAX_JUNCTION_CRITICAL_CURRENT)


def test_design_target_defaults_and_validation():
    targets = DesignTargets()
    assert targets.gain_db == 20.0
    assert targets.center_frequency == 6e9
    assert targets.fractional_bandwidth == 0.25
    assert targets.network_impedance == 81.7
    with pytest.raises(ValueError):
        DesignTargets(gain_db=-3.0)
    with pytest.raises(ValueError):
        DesignTargets(fractional_bandwidth=1.2)
    with pytest.raises(ValueError):
        DesignTargets(center_frequency=float("inf"))


def test_flux_bias_validation():
    with pytest.raises(ValueError):
        FluxBias(flux=float("nan"))
    with pytest.raises(ValueError):
        FluxBias(flux=0.0, i_c_max=0.0)


def test_flux_tuning_curve():
    assert ic_of_flux(FluxBias(0.0)) == MAX_SQUID_CRITICAL_CURRENT
    assert ic_of_flux(FluxBias(0.5)) == pytest.approx(0.0, abs=1e-18)
    assert ic_of_flux(FluxBias(1.0)) == pytest.approx(MAX_SQUID_CRITICAL_CURRENT)
    # even and periodic in one flux quantum
    for flux in (0.1, 0.23, 0.4):
        assert ic_of_flux(FluxBias(flux)) == pytest.approx(ic_of_flux(FluxBias(-flux)))
        assert ic_of_flux(FluxBias(flux)) == pytest.approx(
            ic_of_flux(FluxBias(flux + 1.0)), rel=1e-12
        )
    # monotone fall from zero flux to half frustration
    samples = [ic_of_flux(FluxBias(x)) for x in np.linspace(0.0, 0.5, 11)]
    assert all(a > b for a, b in zip(samples, samples[1:]))


def test_flux_scaled_bias_reaches_canonical_point():
    # a working point near 280 nA exists inside the first tuning lobe
    target = 280e-9
    flux = np.arccos(target / MAX_SQUID_CRITICAL_CURRENT) / np.pi
    assert 0.0 < flux < 0.5
    assert ic_of_flux(FluxBias(flux)) == pytest.approx(target, rel=1e-12)


def test_band_check_canonical(canonical_net, coarse_grid):
    report = band_check(canonical_net, coarse_grid.frequencies)
    assert not report.empty
    assert report.reference_impedance == 50.0
    assert 3.5e9 < report.band_lo_hz < 4.1e9
    assert 9.0e9 < report.band_hi_hz < 9.7e9
    assert report.band_lo_hz < report.peak_frequency < report.band_hi_hz
    assert 60.0 < report.peak_impedance < 90.0
    assert 5.0e9 < report.bandwidth_hz < 6.2e9
    # the upper edge rolls off more slowly than the lower edge
    assert report.asymmetry > 1.0
    assert report.upper_rolloff_hz > report.lower_rolloff_hz


def test_band_check_probe_network_is_empty(coarse_grid):
    probe = Netlist(chain=(), bias_branch=None)
    report = band_check(probe, coarse_grid.frequencies)
    assert report.empty
    assert np.isnan(report.band_lo_hz) and np.isnan(report.band_hi_hz)
    assert np.isnan(report.bandwidth_hz)
    assert report.peak_impedance == pytest.approx(50.0)
