"""Identities and junction-row extraction of the generalized response matrix."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ictasim.circuit import FrequencyGrid
from ictasim.frankenstein import (
    PortKind,
    SingularConversionError,
    junction_port,
    junction_row,
    klmn,
    to_frankenstein,
    wave_port,
)
from oracles import ArrayResponse, from_frankenstein


def reflection(z_load, z0):
    return (z_load - z0) / (z_load + z0)


def test_klmn_bias_port_values():
    k, l, m, n = klmn([PortKind.voltage_bias()], z0=50.0)
    assert_allclose([k[0], l[0], m[0], n[0]], [0.02, -0.02, 1.0, 1.0])
    k, l, m, n = klmn([PortKind.current_bias()], z0=50.0)
    assert_allclose([k[0], l[0], m[0], n[0]], [1.0, 1.0, 0.02, -0.02])


def test_klmn_wave_port_values():
    # Matched wave port degenerates to the scattering identity.
    k, l, m, n = klmn([PortKind.wave(50.0)], z0=50.0)
    assert_allclose([k[0], l[0], m[0], n[0]], [0.0, 1.0, 1.0, 0.0])
    k, l, m, n = klmn([PortKind.wave(100.0)], z0=50.0)
    assert_allclose([k[0], l[0], m[0], n[0]], [-0.5, 1.5, 1.5, -0.5])


def test_klmn_rejects_bad_reference():
    with pytest.raises(ValueError):
        klmn([PortKind.wave(50.0)], z0=0.0)
    with pytest.raises(ValueError):
        klmn([PortKind.wave(50.0)], z0=np.inf)


def test_port_kind_validation():
    with pytest.raises(ValueError):
        PortKind("thevenin")
    with pytest.raises(ValueError):
        PortKind.wave(-5.0)
    with pytest.raises(ValueError):
        PortKind("voltage-bias", impedance=50.0)


def one_port_f(z_load, kind, z0=50.0):
    s = np.array([[[reflection(z_load, z0)]]])
    return to_frankenstein(s, [kind], z0=z0)[0, 0, 0]


def test_voltage_bias_one_port_is_admittance():
    for z_load in (50.0, 10.0 + 3j, 200.0 - 80j, 0.5 + 100j):
        f = one_port_f(z_load, PortKind.voltage_bias())
        assert_allclose(f, 1.0 / z_load, rtol=1e-12)


def test_current_bias_one_port_is_impedance():
    for z_load in (50.0, 10.0 + 3j, 200.0 - 80j, 0.5 + 100j):
        f = one_port_f(z_load, PortKind.current_bias())
        assert_allclose(f, z_load, rtol=1e-12)


def test_wave_one_port_is_renormalized_reflection():
    for z_load in (50.0, 10.0 + 3j, 200.0 - 80j):
        for z_port in (25.0, 50.0, 93.0):
            f = one_port_f(z_load, PortKind.wave(z_port))
            assert_allclose(f, reflection(z_load, z_port), rtol=1e-12, atol=1e-15)


def test_through_line_to_current_bias_port():
    # Ideal through with the far port driven by a current source: the source
    # sees the matched port impedance, an incident wave doubles at the
    # effectively open far end, and the near port sees full reflection.
    z0 = 50.0
    s = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    kinds = [PortKind.wave(z0), PortKind.current_bias()]
    f = to_frankenstein(s, kinds, z0=z0)[0]
    assert_allclose(f, [[1.0, z0], [2.0, z0]], atol=1e-12)


def test_round_trip_random_networks():
    rng = np.random.default_rng(7)
    choices = [PortKind.wave(50.0), PortKind.wave(80.0), PortKind.voltage_bias(), PortKind.current_bias()]
    for _ in range(25):
        n = rng.integers(1, 5)
        kinds = [choices[i] for i in rng.integers(0, len(choices), n)]
        s = 0.4 * (rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n)))
        f = to_frankenstein(s, kinds, z0=60.0)
        assert_allclose(from_frankenstein(f, kinds, z0=60.0), s, rtol=1e-10, atol=1e-12)


def test_reference_impedance_independence():
    # The same physical network, expressed against two different scattering
    # references, must convert to the identical response matrix.
    rng = np.random.default_rng(11)
    kinds = [PortKind.wave(60.0), PortKind.current_bias(), PortKind.voltage_bias()]
    for _ in range(10):
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        z_net = c + c.T + 6.0 * np.eye(3)
        eye = np.eye(3)
        f_per_ref = []
        for z0 in (50.0, 75.0):
            s = np.linalg.solve((z_net + z0 * eye).T, (z_net - z0 * eye).T).T
            f_per_ref.append(to_frankenstein(s[np.newaxis], kinds, z0=z0))
        assert_allclose(f_per_ref[0], f_per_ref[1], rtol=1e-10, atol=1e-12)


def test_singular_conversion_names_frequency():
    # Voltage-biasing an ideal short is ill-posed: (M + N S) drops rank.
    s = np.array([[[-1.0]], [[0.0]]], dtype=complex)
    with pytest.raises(SingularConversionError) as err:
        to_frankenstein(s, [PortKind.voltage_bias()], frequencies=np.array([5e9, 6e9]))
    assert "5e+09 Hz" in str(err.value)
    assert_allclose(err.value.frequencies, [5e9])


def test_junction_row_extraction():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    kinds = (PortKind.wave(50.0), PortKind.current_bias(), PortKind.voltage_bias())
    f = ArrayResponse(values, kinds, FrequencyGrid(1e6, 4))
    row = junction_row(f)
    assert row.response is f
    assert_allclose(row.f_jj, f.values[:, 1, 1])


def test_junction_row_port_selection_errors():
    # The junction is the unique current-bias port of the response's kinds.
    current, voltage = PortKind.current_bias(), PortKind.voltage_bias()
    assert junction_port((PortKind.wave(50.0), current, voltage)) == 1
    with pytest.raises(ValueError, match="exactly one current-bias port, found 2"):
        junction_port((current, current, voltage))


def test_wave_port_is_the_unique_wave_port():
    wave, current, voltage = PortKind.wave(50.0), PortKind.current_bias(), PortKind.voltage_bias()
    assert wave_port((current, wave, voltage)) == 1
    with pytest.raises(ValueError, match="exactly one wave port, found 0"):
        wave_port((current, voltage))
    with pytest.raises(ValueError, match="exactly one wave port, found 2"):
        wave_port((wave, current, PortKind.wave(75.0)))

