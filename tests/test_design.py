"""Canonical parameter set and band diagnostics."""

import numpy as np
import pytest

from ictasim.circuit import IctaParams, Netlist
from ictasim.design import band_check


def test_canonical_component_values():
    params = IctaParams()
    assert params.tank_inductance == 1.38e-9
    assert params.tank_capacitance == 530e-15
    assert params.series_inductance == 1.94e-9
    assert params.series_capacitance == 373e-15
    assert params.line_impedance == 58.8
    assert params.line_quarter_wave_frequency == 5.88e9
    assert params.wave_port_impedance == 50.0
    assert params.junction_capacitance == 0.0
    assert params.cable_length == 0.0


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
