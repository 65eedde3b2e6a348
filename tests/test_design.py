"""Canonical parameter set and band diagnostics."""

from dataclasses import astuple

import numpy as np
import pytest

from ictasim import design
from ictasim.circuit import DEFAULT_GRID, IctaParams, Netlist, build_icta, z_jj
from ictasim.design import _rolloff_width, band_check, longest_run
from oracles import longest_run_loop, rolloff_width_loop


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


def test_band_report_walks_match_loops(monkeypatch, coarse_grid):
    rng = np.random.default_rng(7)
    masks = [np.zeros(0, bool), np.zeros(50, bool), np.ones(50, bool), np.array([True])]
    # Equally long runs, the first must win.
    masks += [np.array([0, 1, 1, 0, 1, 1, 0, 1, 1], bool), np.array([1, 1, 0, 1, 1], bool)]
    masks += [rng.random(n) < p for n in (1, 2, 37, 400) for p in (0.2, 0.5, 0.9)]
    for mask in masks:
        assert longest_run(mask) == longest_run_loop(mask)
        assert longest_run(mask.tolist()) == longest_run_loop(mask)

    f = np.linspace(1e9, 10e9, 300)
    curves = []
    for _ in range(8):
        center, width = rng.uniform(3e9, 8e9), rng.uniform(0.3e9, 3e9)
        curves.append(100.0 / (1.0 + ((f - center) / width) ** 2) + rng.normal(0, 0.5, f.size))
    # Never down to 10% of the peak (the grid ends first), flat, and with NaNs.
    curves += [60.0 + 10.0 * np.cos(f / 3e9), np.full(f.size, 70.0)]
    holes = curves[0].copy()
    holes[rng.choice(f.size, 40, replace=False)] = np.nan
    # A NaN just before the first hi crossing, on both sides of the peak.
    hole_first = np.full(f.size, 1.0)
    hole_first[140:157] = [5, 20, 40, 50, np.nan, 97, 98, 99, 100, 99, 98, 97, np.nan, 50, 40, 20, 5]
    curves += [holes, hole_first]
    for r in curves:
        peak = int(np.nanargmax(r))
        for start in (0, peak, f.size - 1):
            for step in (-1, 1):
                for levels in ((0.9 * r[peak], 0.1 * r[peak]), (r[peak], r[peak]), (80.0, -1.0)):
                    got = _rolloff_width(f, r, start, step, *levels)
                    want = rolloff_width_loop(f, r, start, step, *levels)
                    assert got == want or (np.isnan(got) and np.isnan(want))

    nets = [build_icta(IctaParams()), build_icta(IctaParams(cable_length=0.25)),
            Netlist(chain=(), bias_branch=None)]
    grids = [coarse_grid.frequencies, DEFAULT_GRID.frequencies]
    reports = [band_check(net, f) for net in nets for f in grids]
    monkeypatch.setattr(design, "longest_run", longest_run_loop)
    monkeypatch.setattr(design, "_rolloff_width", rolloff_width_loop)
    oracle = [band_check(net, f) for net in nets for f in grids]
    for got, want in zip(reports, oracle):
        assert np.array_equal(astuple(got), astuple(want), equal_nan=True)


def test_band_check_reads_the_impedance_it_is_given(canonical_net):
    # The impedance of the whole grid, f = 0 included, gives the report of
    # the fold at the positive frequencies, field for field.
    f = DEFAULT_GRID.frequencies
    assert astuple(band_check(canonical_net, f, z_jj(canonical_net, f))) == astuple(
        band_check(canonical_net, f)
    )
