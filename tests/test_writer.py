"""The CSV writer's bytes against the row-by-row '%' writer: adversarial cells,
a seeded fuzz over the whole double range, and the fallback share of the
canonical Z_JJ table."""

import numpy as np
import pytest

from ictasim.circuit import DEFAULT_GRID, IctaParams, build_icta, z_jj
from ictasim.sweeps import _decimal_split, write_table
from oracles import write_table_rows


def assert_same_bytes(tmp_path, header, columns):
    write_table(tmp_path / "fast.csv", header, columns)
    write_table_rows(tmp_path / "rows.csv", header, columns)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def neighbours(values):
    """Each value and the doubles one ulp either side of it."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def adversarial_floats():
    ties = [
        9.999999999995e5,
        1e99, 9.999999999995e98, 9.9999999999995e99, 1e-99, 1.0000000000005e-99,
        # exact binary values on a 12-digit tie: half-even keeps 2, carries 9
        100000000000.5, 100000000001.5, 1234567890125.0, 1234567890135.0, 9999999999995.0,
        0.5, 2.5, 1.25, 0.125, 1.0,
    ]
    special = [
        np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0,
        5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, -1e-310,
        1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308, 1e100, 9.99e-100, 1e-100,
    ]
    values = neighbours(ties)
    return np.concatenate([special, values, -values])


def test_adversarial_cells(tmp_path):
    floats = adversarial_floats()
    n = floats.size
    ints = np.array([0, -1, 1, -(2**63), 2**63 - 1, -123456789012345, 10**15, 7] * n)[:n]
    flags = np.arange(n) % 3 == 0
    f32 = np.where(np.abs(floats) > 3e38, np.copysign(np.inf, floats), floats).astype(np.float32)
    assert_same_bytes(
        tmp_path,
        ["x", "minus_x", "f32", "i64", "u8", "flag"],
        [floats, -floats, f32, ints, (ints % 256).astype(np.uint8), flags],
    )


@pytest.mark.parametrize("n_rows", [0, 1])
def test_tiny_tables(tmp_path, n_rows):
    columns = [np.full(n_rows, -0.0), np.full(n_rows, 2**40), np.ones(n_rows, dtype=bool)]
    assert_same_bytes(tmp_path, ["x", "i", "flag"], columns)
    assert (tmp_path / "fast.csv").read_text().count("\n") == n_rows + 1


@pytest.mark.parametrize("max_exponent", [300, 99])
def test_fuzzed_cells(tmp_path, max_exponent):
    # A million doubles with decimal exponents uniform in +-max_exponent and
    # every 7th nudged by one ulp; at +-99 nearly all take the bulk path.
    rng = np.random.default_rng(max_exponent)
    x = rng.standard_normal(1_000_000) * 10.0 ** rng.uniform(-max_exponent, max_exponent, 1_000_000)
    x[::7] = np.nextafter(x[::7], np.inf)
    assert_same_bytes(tmp_path, ["x"], [x])


def test_near_tie_cells(tmp_path):
    # The doubles nearest (N + 1/2) 10**(E - 11) and their neighbours: the
    # cells whose scaled product lies within its rounding error of one half.
    rng = np.random.default_rng(5)
    digits = rng.integers(10**11, 10**12, 30_000)
    exponents = rng.integers(-99, 100, digits.size)
    ties = [float(f"{n}5e{e - 12}") for n, e in zip(digits.tolist(), exponents.tolist())]
    x = neighbours(ties)
    assert_same_bytes(tmp_path, ["x", "minus_x"], [x, -x])


def test_canonical_zjj_table_rarely_falls_back():
    f = DEFAULT_GRID.frequencies
    z = z_jj(build_icta(IctaParams()), f)
    for column in (f, z.real, z.imag):
        assert np.mean(_decimal_split(column)[2]) < 0.01
