"""Embedding-network algebra: elements, scattering, junction impedance."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ictasim.circuit import (
    DEFAULT_GRID,
    SHUNT_INDUCTOR,
    SHUNT_RESISTOR,
    Element,
    FrequencyGrid,
    IctaParams,
    Netlist,
    _fold,
    build_icta,
    cable,
    emission_fom,
    load_netlist,
    netlist_from_dict,
    netlist_hash,
    netlist_to_dict,
    quarter_wave_line,
    s_matrix,
    save_netlist,
    series_capacitor,
    series_inductor,
    series_resistor,
    shunt_capacitor,
    z_jj,
)
from oracles import fold_with_copies


def test_element_validation():
    with pytest.raises(ValueError):
        series_inductor(-1e-9)
    with pytest.raises(ValueError):
        shunt_capacitor(0.0)
    with pytest.raises(ValueError):
        Element("transmission-line", z0=50.0)
    with pytest.raises(ValueError):
        Element("transmission-line", z0=50.0, quarter_wave_frequency=6e9, length=0.1)
    with pytest.raises(ValueError):
        Element("transmission-line", z0=50.0, length=0.1, velocity_factor=1.3)
    with pytest.raises(ValueError):
        Element("series-inductor", value=1e-9, z0=50.0)
    with pytest.raises(ValueError):
        Element("parallel-gyrator", value=1.0)


def test_quarter_wave_line_closed_form():
    line = quarter_wave_line(58.8, 5.88e9)
    assert_allclose(line.electrical_angle(5.88e9), np.pi / 2)
    # Half wave at twice the design frequency.
    assert_allclose(line.electrical_angle(2 * 5.88e9), np.pi)


def test_series_resonance_frequency():
    params = IctaParams()
    f_res = 1.0 / (2 * np.pi * np.sqrt(params.series_inductance * params.series_capacitance))
    assert_allclose(f_res, 5.9166e9, rtol=1e-4)
    branch = Netlist(
        chain=(
            series_inductor(params.series_inductance),
            series_capacitor(params.series_capacitance),
        )
    )
    s = s_matrix(branch, f_res)
    # The matching branch is a through at its series resonance: its residual
    # series impedance Z reflects Z / (Z + 2 Z0), here under 1e-6 of the
    # inductor's reactance.
    bound = 1e-6 * 2 * np.pi * f_res * params.series_inductance / (2 * 50.0)
    assert np.max(np.abs(s - [[0.0, 1.0], [1.0, 0.0]])) < bound


def test_frequency_grid_validation():
    grid = FrequencyGrid(2e6, 8)
    assert_allclose(grid.frequencies, 2e6 * np.arange(8))
    assert grid.f_max == 16e6
    with pytest.raises(ValueError):
        FrequencyGrid(1e6, 100)
    with pytest.raises(ValueError):
        FrequencyGrid(1e6, 1)
    with pytest.raises(ValueError):
        FrequencyGrid(-1e6, 8)
    assert DEFAULT_GRID.spacing == 1e6
    assert DEFAULT_GRID.size == 2**15


def test_netlist_validation():
    with pytest.raises(ValueError):
        Netlist(chain=(series_inductor(1e-9),), bias_branch=(shunt_capacitor(1e-9),))
    net = Netlist(chain=(series_inductor(1e-9),), bias_branch=None)
    assert net.port_names == ("signal", "junction")
    full = build_icta(IctaParams())
    assert full.port_names == ("signal", "junction", "dc")
    kinds = full.port_kinds
    assert kinds[0].kind == "wave" and kinds[1].kind == "current-bias"
    assert kinds[2].kind == "voltage-bias"


def test_matched_line_scattering():
    net = Netlist(chain=(cable(50.0, 0.1, 0.7),), bias_branch=None)
    f = np.array([1e9, 3.7e9, 9e9])
    s = s_matrix(net, f, reference_impedance=50.0)
    theta = net.chain[0].electrical_angle(f)
    assert_allclose(s[:, 0, 0], 0.0, atol=1e-12)
    assert_allclose(s[:, 1, 0], np.exp(-1j * theta), rtol=1e-12)


def test_shunt_element_scattering():
    # A shunt admittance Y across a Z0 through: S11 = -Y Z0 / (2 + Y Z0),
    # S21 = 2 / (2 + Y Z0).
    f = np.array([1e9, 3.7e9, 9e9])
    for element, y in (
        (Element(SHUNT_RESISTOR, value=25.0), np.full(3, 1.0 / 25.0)),
        (Element(SHUNT_INDUCTOR, value=1e-9), 1.0 / (2j * np.pi * f * 1e-9)),
    ):
        s = s_matrix(Netlist(chain=(element,), bias_branch=None), f, reference_impedance=50.0)
        assert_allclose(s[:, 0, 0], -y * 50.0 / (2.0 + y * 50.0), rtol=1e-12)
        assert_allclose(s[:, 1, 0], 2.0 / (2.0 + y * 50.0), rtol=1e-12)


def test_scattering_is_reciprocal_and_unitary(canonical_net, coarse_grid):
    # The canonical network is lossless, so S must be unitary; it is built
    # from reciprocal elements, so S must be symmetric.
    rng = np.random.default_rng(5)
    f = coarse_grid.frequencies[rng.integers(0, coarse_grid.size, 40)]
    s = s_matrix(canonical_net, f)
    assert_allclose(s, np.swapaxes(s, -1, -2), atol=1e-9)
    gram = s @ s.conj().swapaxes(-1, -2)
    assert_allclose(gram, np.broadcast_to(np.eye(3), gram.shape), atol=1e-8)


def test_scattering_handles_dc_bin(canonical_net):
    # Series capacitors open and inductors short at f = 0; the branch-current
    # formulation keeps the nodal system regular there.
    s = s_matrix(canonical_net, 0.0)
    assert s.shape == (3, 3)
    assert np.all(np.isfinite(s))
    assert_allclose(s[0, 0], 1.0, atol=1e-9)  # chain is open at DC
    assert_allclose(np.abs(s[2, 1]), 1.0, atol=1e-9)  # junction shorts to dc


def textbook_junction_impedance(params, f):
    # Independent route: classic input-impedance formulas folded by hand.
    w = 2 * np.pi * f
    z = complex(params.wave_port_impedance)
    zl = params.line_impedance
    t = np.tan(0.5 * np.pi * f / params.line_quarter_wave_frequency)
    z = zl * (z + 1j * zl * t) / (zl + 1j * z * t)
    z = z + 1j * w * params.series_inductance + 1.0 / (1j * w * params.series_capacitance)
    y = 1.0 / z + 1j * w * params.tank_capacitance
    # The bias inductor lands on the RF-shorted supply node.
    y = y + 1.0 / (1j * w * params.tank_inductance)
    return 1.0 / y


def test_junction_impedance_matches_textbook(canonical_net):
    params = IctaParams()
    for f in (2.0e9, 4.0e9, 5.885e9, 7.5e9, 9.0e9, 12.26e9):
        z = z_jj(canonical_net, np.array([f]))[0]
        assert_allclose(z, textbook_junction_impedance(params, f), rtol=1e-8)


def test_junction_impedance_quarter_wave_transform(canonical_net):
    # At the line design frequency the transformer presents Z_line^2 / Z_port
    # and the series branch is near resonance, so the real part dominates.
    z = z_jj(canonical_net, np.array([5.88e9]))[0]
    assert_allclose(z.real, 58.8**2 / 50.0, rtol=0.02)


def test_junction_impedance_agrees_with_response_matrix(canonical_net, canonical_f, coarse_grid):
    # Dual route: projective ladder fold vs. the current-bias diagonal of the
    # converted scattering matrix.
    z_fold = z_jj(canonical_net, coarse_grid.frequencies)
    z_resp = canonical_f.rows(slice(None))[:, 1, 1]
    finite = np.isfinite(z_fold)
    assert finite.all()
    scale = np.maximum(1.0, np.abs(z_fold))
    assert np.max(np.abs(z_fold - z_resp) / scale) < 1e-9


def test_probe_netlist_sees_port_impedance():
    # A bare wave port at the junction is the textbook reference case.
    probe = Netlist(chain=(), bias_branch=None, wave_port_impedance=50.0)
    z = z_jj(probe, np.linspace(0.0, 2e10, 64))
    assert np.all(z == 50.0)


def test_real_impedance_band(canonical_net):
    # The transformed tank shows a contiguous band where Re Z exceeds the
    # port impedance, covering the amplifier's working range.
    f = np.linspace(1e9, 14e9, 1301)
    z = z_jj(canonical_net, f)
    above = z.real > 50.0
    edges = np.flatnonzero(np.diff(above.astype(int)))
    assert above.sum() > 0
    band = f[above]
    assert len(edges) == 2
    assert 3.5e9 < band[0] < 4.1e9
    assert 9.0e9 < band[-1] < 9.7e9


def test_emission_figure_of_merit(canonical_net):
    f, fom = emission_fom(canonical_net, np.array([0.0, 5e9, 12e9]))
    assert_allclose(f, [5e9, 12e9])
    z = z_jj(canonical_net, np.array([5e9, 12e9]))
    assert_allclose(fom, z.real / f)


def test_build_icta_optional_elements():
    base = build_icta(IctaParams())
    assert len(base.chain) == 4 and len(base.bias_branch) == 2
    cabled = build_icta(IctaParams(cable_length=0.33))
    assert len(cabled.chain) == 5
    assert cabled.chain[0].kind == "transmission-line"
    filtered = build_icta(IctaParams(bias_resistance=5.0))
    assert len(filtered.bias_branch) == 3
    assert filtered.bias_branch[1].kind == "series-resistor"
    padded = build_icta(IctaParams(junction_capacitance=50e-15))
    assert len(padded.chain) == 5


def test_cable_angle_scales_with_length():
    short = cable(55.0, 0.100, 2**-0.5)
    long = cable(55.0, 0.330, 2**-0.5)
    f = np.array([4e9, 6e9, 8e9])
    assert_allclose(long.electrical_angle(f) / short.electrical_angle(f), 3.3)


def test_netlist_json_round_trip(tmp_path):
    net = build_icta(IctaParams(cable_length=0.33, bias_resistance=5.0))
    path = tmp_path / "net.json"
    save_netlist(net, path)
    assert load_netlist(path) == net
    assert netlist_hash(load_netlist(path)) == netlist_hash(net)
    other = build_icta(IctaParams(cable_length=0.33, bias_resistance=5.1))
    assert netlist_hash(other) != netlist_hash(net)


def test_netlist_dict_rejects_unknown_fields():
    net = build_icta(IctaParams())
    d = netlist_to_dict(net)
    d["color"] = "blue"
    with pytest.raises(ValueError):
        netlist_from_dict(d)
    with pytest.raises(ValueError):
        netlist_from_dict({"wave_port_impedance": 50.0})
    bad = netlist_to_dict(net)
    bad["chain"][0]["twist"] = 1.0
    with pytest.raises(ValueError):
        netlist_from_dict(bad)


@pytest.mark.parametrize(
    "net",
    [
        build_icta(IctaParams()),
        build_icta(IctaParams(cable_length=0.33)),
        build_icta(IctaParams(bias_resistance=0.3)),
        build_icta(IctaParams(junction_capacitance=50e-15)),
        # At f = 0 the series capacitor opens the chain and the shunt
        # inductor shorts it; the branch's inductor and resistor stay finite.
        Netlist(
            chain=(series_resistor(20.0), Element(SHUNT_INDUCTOR, value=2e-9),
                   series_capacitor(1e-12), Element(SHUNT_RESISTOR, value=75.0),
                   quarter_wave_line(40.0, 6e9)),
            bias_branch=(series_inductor(1e-9), series_resistor(2.0), shunt_capacitor(1e-9)),
        ),
    ],
    ids=["canonical", "cable", "bias-resistor", "junction-capacitance", "open-and-short"],
)
def test_fold_in_place_equals_fold_with_copies(net):
    # Both folds of z_jj on DEFAULT_GRID (bin 0 at f = 0), and z_jj from
    # them, bit for bit.
    f = DEFAULT_GRID.frequencies
    folds = []
    for elements, termination in ((net.chain, (net.wave_port_impedance, 1.0)),
                                  (tuple(reversed(net.bias_branch)), (0.0, 1.0))):
        folds.append(fold_with_copies(elements, f, *termination))
        for got, want in zip(_fold(elements, f, *termination), folds[-1]):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    (num_c, den_c), (num_b, den_b) = folds
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (num_c * num_b) / (den_c * num_b + den_b * num_c)
    z[(num_c == 0.0) | (num_b == 0.0)] = 0.0
    assert np.array_equal(z_jj(net, f).view(np.int64), z.view(np.int64))
