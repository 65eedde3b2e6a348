"""The lazily built response: F per bin on first read, f_jj from the ladder
fold, outputs on the lattice, all against the full eager build."""

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from ictasim import circuit
from ictasim.circuit import (
    DEFAULT_GRID,
    IctaParams,
    FrequencyGrid,
    Netlist,
    build_icta,
    frankenstein_matrix,
    s_matrix,
    series_capacitor,
    series_inductor,
    shunt_capacitor,
    z_jj,
)
from ictasim.frankenstein import SingularConversionError, junction_row
from ictasim.solver import (
    BiasPoint,
    Lattice,
    SolverOptions,
    Stimulus,
    iterate,
    outputs,
    power_balance,
)
from ictasim.sweeps import pump_emission
from oracles import eager_response

FAST = SolverOptions(max_iterations=3000)
# The extreme value of each netlist edit the design-scan benchmark makes.
EDGE_NETLISTS = [
    IctaParams(),
    IctaParams(cable_length=0.40),
    IctaParams(bias_resistance=0.6),
    IctaParams(junction_capacitance=40e-15),
]


def test_lazy_rows_equal_full_build_bitwise(monkeypatch):
    net = build_icta(IctaParams(cable_length=0.40, bias_resistance=0.3))
    eager = eager_response(net, DEFAULT_GRID).values
    asked = _read_frequencies(monkeypatch)
    lazy = frankenstein_matrix(net, DEFAULT_GRID)
    rng = np.random.default_rng(3)
    n = DEFAULT_GRID.size
    requests = [np.concatenate([[0, n - 1], rng.choice(n, size, replace=False)])
                for size in (1, 40, 900)]
    # Unsorted, repeated within the request, some built before and some not.
    requests += [np.array([7, 5, 7, n - 1, 3, 5, 5, 0, 3]), requests[1][::-1],
                 slice(None, None, 7), slice(None)]
    held = set()
    for bins in requests:
        assert np.array_equal(lazy.rows(bins), eager[bins])
        held |= set(np.arange(n)[bins].tolist())
        # The cache holds the distinct bins read so far, each built once.
        assert np.flatnonzero(lazy._slot >= 0).tolist() == sorted(held) and lazy._count == len(held)
        assert sorted(asked) == DEFAULT_GRID.frequencies[sorted(held)].tolist()


def test_rows_fill_the_cache_as_np_unique_does(canonical_net, coarse_grid, monkeypatch):
    # Each request builds its unbuilt bins once, ascending, BUILD_BLOCK at a
    # time, and leaves `_slot` and `_count` as a reference that takes those
    # bins from np.unique does.
    calls = []

    def recording(net, f, *args, **kwargs):
        calls.append(np.atleast_1d(f).tolist())
        return s_matrix(net, f, *args, **kwargs)

    monkeypatch.setattr(circuit, "s_matrix", recording)
    monkeypatch.setattr(circuit, "BUILD_BLOCK", 4)
    lazy = frankenstein_matrix(canonical_net, coarse_grid)
    n = coarse_grid.size
    slot, count = np.full(n, -1), 0
    requests = [np.array([9, -1, 4, 9, -n, 4, 12, 11, 10]), slice(-5, None),
                np.array([3, 2, 1, 3, -3]), slice(None, None, -300),
                np.array([], dtype=int), np.array([-1, 0, 9])]
    for bins in requests:
        wanted = np.arange(n)[bins]
        todo = np.unique(wanted[slot[wanted] < 0])
        slot[todo] = np.arange(count, count + todo.size)
        count += todo.size
        del calls[:]
        rows = lazy.rows(bins)
        blocks = [todo[i : i + 4] for i in range(0, todo.size, 4)]
        assert calls == [coarse_grid.frequencies[block].tolist() for block in blocks]
        assert np.array_equal(lazy._slot, slot) and lazy._count == count
        assert rows.shape == (wanted.size, lazy.n_ports, lazy.n_ports)


@pytest.mark.parametrize("params", EDGE_NETLISTS)
def test_fold_junction_impedance_matches_full_build(params):
    net = build_icta(params)
    eager = eager_response(net, DEFAULT_GRID).values[:, 1, 1]
    response = frankenstein_matrix(net, DEFAULT_GRID)
    fold = junction_row(response).f_jj
    assert np.all(np.abs(fold - eager) <= 1e-11 * np.abs(eager))
    # One fold per response, shared read-only by every chain that asks.
    assert junction_row(response).f_jj is fold and not fold.flags.writeable


def _read_frequencies(monkeypatch):
    asked = []

    def recording(net, f, *args, **kwargs):
        asked.extend(np.atleast_1d(f).tolist())
        return s_matrix(net, f, *args, **kwargs)

    monkeypatch.setattr(circuit, "s_matrix", recording)
    return asked


def test_sub_lattice_outputs_match_full_read(canonical_net, coarse_grid, monkeypatch):
    asked = _read_frequencies(monkeypatch)
    lazy = frankenstein_matrix(canonical_net, coarse_grid)
    stim = Stimulus.single(4.8e9, -140.0)
    state = iterate(junction_row(lazy), BiasPoint(12e9, 280e-9), stim, FAST)
    assert state.converged and state.lattice.unit == 150
    assert asked == [4.8e9]  # the drive reads the tone bin alone
    fast = outputs(state)
    lattice = np.arange(0, coarse_grid.size, state.lattice.unit)
    assert sorted(set(asked)) == list(lattice * coarse_grid.spacing)
    eager = eager_response(canonical_net, coarse_grid)
    full = outputs(replace(state, lattice=Lattice.stride(coarse_grid, 750, 1), response=eager))
    assert np.array_equal(fast.a_out[:, lattice], full.a_out[:, lattice])
    off = np.ones(coarse_grid.size, dtype=bool)
    off[lattice] = False
    assert np.all(fast.a_out[:, off] == 0.0) and np.all(full.a_out[:, off] == 0.0)
    assert abs(power_balance(fast).relative_error - power_balance(full).relative_error) <= 1e-14


@pytest.mark.parametrize("bandwidth", [0.0, 96e6])
def test_emission_reads_reported_bins_and_matches_eager(coarse_grid, monkeypatch, bandwidth):
    net = build_icta(IctaParams(bias_resistance=0.1))
    bias = BiasPoint(12e9, 200e-9)
    eager = pump_emission(eager_response(net, coarse_grid), bias, bandwidth, options=FAST)
    asked = _read_frequencies(monkeypatch)
    lazy = pump_emission(frankenstein_matrix(net, coarse_grid), bias, bandwidth, options=FAST)
    m, half = 750, round(0.5 * bandwidth / coarse_grid.spacing)
    assert asked == [k * coarse_grid.spacing for k in [*range(m - half, m + half + 1), 2 * m]]
    assert lazy.converged and eager.converged
    assert abs(lazy.power_watts / eager.power_watts - 1.0) <= 1e-9
    assert np.allclose(lazy.harmonics_dbm, eager.harmonics_dbm, rtol=0, atol=1e-8)


def test_threads_share_one_cache(canonical_net, coarse_grid, monkeypatch):
    # More threads than cores and a short switch interval: every read is the
    # eager rows, and every bin read is built once, whichever thread asked.
    eager = eager_response(canonical_net, coarse_grid).values
    asked = _read_frequencies(monkeypatch)
    lazy = frankenstein_matrix(canonical_net, coarse_grid)
    requests = [np.random.default_rng(i).integers(0, coarse_grid.size, 64) for i in range(32)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            reads = list(pool.map(lazy.rows, requests, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for bins, rows in zip(requests, reads):
        assert np.array_equal(rows, eager[bins])
    held = sorted(set(np.concatenate(requests).tolist()))
    assert sorted(asked) == coarse_grid.frequencies[held].tolist()
    assert np.flatnonzero(lazy._slot >= 0).tolist() == held and lazy._count == len(held)


def test_floating_junction_raises_like_full_build(coarse_grid):
    # A series capacitor and no bias branch leave the junction open at DC.
    net = Netlist(chain=(series_capacitor(1e-12),), bias_branch=None)
    with pytest.raises(SingularConversionError, match="at 0 Hz"):
        eager_response(net, coarse_grid)
    with pytest.raises(SingularConversionError, match="at 0 Hz"):
        junction_row(frankenstein_matrix(net, coarse_grid))


@pytest.mark.parametrize("coupling, singular", [(1e-21, False), (1e-23, True)])
def test_near_open_junction_raises_like_full_build(coupling, singular):
    # A lossless tank at the junction, resonant on bin 60 and damped only
    # through a tiny coupling capacitor: |f_jj| there is 2.6e10 and 2.6e12
    # ohm, finite both times, and cond(M + N S) 2.4e10 and 2.4e12.
    grid = FrequencyGrid(spacing=1e8, size=128)
    f0, inductance = 6e9, 1e-9
    tank = 1.0 / ((2 * np.pi * f0) ** 2 * inductance)
    net = Netlist(
        chain=(series_capacitor(coupling), shunt_capacitor(tank)),
        bias_branch=(series_inductor(inductance),),
    )
    assert np.all(np.isfinite(z_jj(net, grid.frequencies)))
    if not singular:
        eager_response(net, grid)
        junction_row(frankenstein_matrix(net, grid))
        return
    with pytest.raises(SingularConversionError, match=r"at 6e\+09 Hz"):
        eager_response(net, grid)
    with pytest.raises(SingularConversionError, match=r"at 6e\+09 Hz"):
        junction_row(frankenstein_matrix(net, grid))
