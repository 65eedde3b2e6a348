"""Linear embedding networks: elements, netlists, scattering, junction impedance.

The amplifier's linear part is a ladder seen from a single wave port: an
optional cable, an impedance-transforming line, a series matching tank, down
to the junction node, plus a bias branch from the junction node to the DC
voltage port.  This module evaluates that network two independent ways:

* `z_jj` folds the ladder projectively to the impedance seen by the junction,
* `s_matrix` assembles a modified nodal system with branch currents for
  inductors and transmission lines (regular at f = 0 and at half-wave
  resonances) and returns the voltage scattering matrix directly.

`frankenstein_matrix` wraps a netlist and a grid in a `NetlistResponse`,
which builds the generalized response matrix F bin by bin, through
`s_matrix` and `to_frankenstein`, only where it is read, and takes the
junction diagonal from the `z_jj` fold.

Units are SI throughout: Hz, ohm, henry, farad, meter.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from .frankenstein import COND_LIMIT, PortKind, SingularConversionError, to_frankenstein

SPEED_OF_LIGHT = 299792458.0

SERIES_INDUCTOR = "series-inductor"
SERIES_CAPACITOR = "series-capacitor"
SERIES_RESISTOR = "series-resistor"
SHUNT_INDUCTOR = "shunt-inductor"
SHUNT_CAPACITOR = "shunt-capacitor"
SHUNT_RESISTOR = "shunt-resistor"
TRANSMISSION_LINE = "transmission-line"

_SERIES_KINDS = {SERIES_INDUCTOR, SERIES_CAPACITOR, SERIES_RESISTOR}
_SHUNT_KINDS = {SHUNT_INDUCTOR, SHUNT_CAPACITOR, SHUNT_RESISTOR}
_ALL_KINDS = _SERIES_KINDS | _SHUNT_KINDS | {TRANSMISSION_LINE}

# Fixed port names of the single-chain netlist.
SIGNAL_PORT = "signal"
JUNCTION_PORT = "junction"
DC_PORT = "dc"


def _positive_finite(name: str, value) -> float:
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be strictly positive and finite, got {value!r}")
    return value


@dataclass(frozen=True)
class Element:
    """One ladder element.

    Lumped kinds store their value (henry, farad or ohm) in `value`.
    A transmission line stores its characteristic impedance `z0` plus exactly
    one of `quarter_wave_frequency` (Hz) or the pair `length` (m) and
    `velocity_factor` (fraction of the vacuum speed of light).
    """

    kind: str
    value: float | None = None
    z0: float | None = None
    quarter_wave_frequency: float | None = None
    length: float | None = None
    velocity_factor: float | None = None

    def __post_init__(self):
        if self.kind not in _ALL_KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}")
        if self.kind == TRANSMISSION_LINE:
            if self.value is not None:
                raise ValueError("transmission-line takes no lumped value")
            object.__setattr__(self, "z0", _positive_finite("z0", self.z0))
            by_f0 = self.quarter_wave_frequency is not None
            by_len = self.length is not None or self.velocity_factor is not None
            if by_f0 == by_len:
                raise ValueError(
                    "transmission-line requires exactly one of quarter_wave_frequency "
                    "or (length, velocity_factor)"
                )
            if by_f0:
                object.__setattr__(
                    self,
                    "quarter_wave_frequency",
                    _positive_finite("quarter_wave_frequency", self.quarter_wave_frequency),
                )
            else:
                object.__setattr__(self, "length", _positive_finite("length", self.length))
                vf = _positive_finite("velocity_factor", self.velocity_factor)
                if vf > 1.0:
                    raise ValueError("velocity_factor cannot exceed 1")
                object.__setattr__(self, "velocity_factor", vf)
        else:
            for field in ("z0", "quarter_wave_frequency", "length", "velocity_factor"):
                if getattr(self, field) is not None:
                    raise ValueError(f"{self.kind} takes no {field}")
            object.__setattr__(self, "value", _positive_finite("value", self.value))

    @property
    def is_series(self) -> bool:
        return self.kind in _SERIES_KINDS or self.kind == TRANSMISSION_LINE

    def electrical_angle(self, f) -> np.ndarray:
        """Line phase angle theta(f) in radians (transmission lines only)."""
        if self.kind != TRANSMISSION_LINE:
            raise ValueError("electrical_angle applies to transmission lines only")
        f = np.asarray(f, dtype=float)
        if self.quarter_wave_frequency is not None:
            return 0.5 * np.pi * f / self.quarter_wave_frequency
        velocity = self.velocity_factor * SPEED_OF_LIGHT
        return 2.0 * np.pi * f * self.length / velocity


def series_inductor(inductance: float) -> Element:
    return Element(SERIES_INDUCTOR, value=inductance)


def series_capacitor(capacitance: float) -> Element:
    return Element(SERIES_CAPACITOR, value=capacitance)


def series_resistor(resistance: float) -> Element:
    return Element(SERIES_RESISTOR, value=resistance)


def shunt_capacitor(capacitance: float) -> Element:
    return Element(SHUNT_CAPACITOR, value=capacitance)


def quarter_wave_line(z0: float, quarter_wave_frequency: float) -> Element:
    return Element(TRANSMISSION_LINE, z0=z0, quarter_wave_frequency=quarter_wave_frequency)


def cable(z0: float, length: float, velocity_factor: float) -> Element:
    return Element(TRANSMISSION_LINE, z0=z0, length=length, velocity_factor=velocity_factor)


def _series_impedance(element: Element, f: np.ndarray) -> np.ndarray:
    w = 2.0 * np.pi * f
    if element.kind == SERIES_INDUCTOR:
        return 1j * w * element.value
    if element.kind == SERIES_CAPACITOR:
        # Infinite (open) at f = 0; callers mask non-finite entries.
        with np.errstate(divide="ignore", invalid="ignore"):
            return -1j / (w * element.value) + 0j
    return np.full_like(f, element.value) + 0j


def _series_admittance(element: Element, f: np.ndarray) -> np.ndarray:
    if element.kind == SERIES_CAPACITOR:
        return 1j * 2.0 * np.pi * f * element.value
    if element.kind == SERIES_RESISTOR:
        return np.full_like(f, 1.0 / element.value) + 0j
    raise ValueError(f"no admittance stamp for {element.kind}")


def _shunt_admittance(element: Element, f: np.ndarray) -> np.ndarray:
    w = 2.0 * np.pi * f
    if element.kind == SHUNT_CAPACITOR:
        return 1j * w * element.value
    if element.kind == SHUNT_INDUCTOR:
        # Infinite (short) at f = 0; callers mask non-finite entries.
        with np.errstate(divide="ignore", invalid="ignore"):
            return -1j / (w * element.value) + 0j
    return np.full_like(f, 1.0 / element.value) + 0j


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform frequency grid f_k = k * spacing for k = 0 .. size - 1.

    `size` must be a power of two; f_max = spacing * size is the first
    frequency beyond the grid.
    """

    spacing: float
    size: int

    def __post_init__(self):
        object.__setattr__(self, "spacing", _positive_finite("spacing", self.spacing))
        size = int(self.size)
        if size < 2 or size & (size - 1):
            raise ValueError(f"grid size must be a power of two >= 2, got {size}")
        object.__setattr__(self, "size", size)

    @property
    def frequencies(self) -> np.ndarray:
        return self.spacing * np.arange(self.size)

    @property
    def f_max(self) -> float:
        return self.spacing * self.size


DEFAULT_GRID = FrequencyGrid(spacing=1e6, size=2**15)


@dataclass(frozen=True)
class Netlist:
    """Single-chain amplifier netlist.

    `chain` runs from the wave port to the junction node (series elements and
    lines advance the node, shunts attach at the current node).  `bias_branch`
    runs from the junction node to the DC voltage-bias port; it may be None
    for probe networks without a bias path.  Ports are named "signal",
    "junction" and "dc".
    """

    chain: tuple[Element, ...]
    bias_branch: tuple[Element, ...] | None = None
    wave_port_impedance: float = 50.0

    def __post_init__(self):
        object.__setattr__(self, "chain", tuple(self.chain))
        object.__setattr__(
            self,
            "wave_port_impedance",
            _positive_finite("wave_port_impedance", self.wave_port_impedance),
        )
        if self.bias_branch is not None:
            branch = tuple(self.bias_branch)
            if not any(el.is_series for el in branch):
                raise ValueError("bias branch must reach the DC port through a series element")
            object.__setattr__(self, "bias_branch", branch)

    @property
    def port_names(self) -> tuple[str, ...]:
        if self.bias_branch is None:
            return (SIGNAL_PORT, JUNCTION_PORT)
        return (SIGNAL_PORT, JUNCTION_PORT, DC_PORT)

    @property
    def port_kinds(self) -> tuple[PortKind, ...]:
        kinds = [PortKind.wave(self.wave_port_impedance), PortKind.current_bias()]
        if self.bias_branch is not None:
            kinds.append(PortKind.voltage_bias())
        return tuple(kinds)


def _layout(net: Netlist):
    """Node numbering and element placement for the nodal system: the chain
    from the wave port (node 0) to the junction node, then the bias branch
    from there to the DC port; each branch's last node is a port node."""
    placements = []  # (element, node_a, node_b); node_b None means ground
    node = 0
    n_nodes = 1
    port_nodes = [0]
    for branch in (net.chain, net.bias_branch):
        if branch is None:
            continue
        for el in branch:
            if el.is_series:
                placements.append((el, node, n_nodes))
                node = n_nodes
                n_nodes += 1
            else:
                placements.append((el, node, None))
        port_nodes.append(node)
    return placements, n_nodes, port_nodes


def s_matrix(net: Netlist, f, reference_impedance: float = 50.0) -> np.ndarray:
    """Voltage scattering matrix of the netlist at reference_impedance.

    Every port is terminated in the reference impedance and excited in turn
    by a matched source; S columns are read off the node voltages.  Inductors
    and transmission lines contribute branch-current unknowns, so the system
    stays regular at f = 0 and at line resonances.

    Parameters
    ----------
    net : Netlist
    f : float or ndarray
        Frequency in Hz, nonnegative.
    reference_impedance : float
        Common reference Z0 in ohm.

    Returns
    -------
    ndarray
        Complex (n_ports, n_ports) for scalar f, else (n_freq, ...).
    """
    z0 = _positive_finite("reference_impedance", reference_impedance)
    f_arr = np.atleast_1d(np.asarray(f, dtype=float))
    if np.any(f_arr < 0):
        raise ValueError("frequency must be nonnegative")
    placements, n_nodes, port_nodes = _layout(net)
    n_branch = sum(
        2 if el.kind == TRANSMISSION_LINE else 1
        for el, _, _ in placements
        if el.kind in (SERIES_INDUCTOR, SHUNT_INDUCTOR, TRANSMISSION_LINE)
    )
    n_freq = f_arr.size
    size = n_nodes + n_branch
    a = np.zeros((n_freq, size, size), dtype=complex)
    q = n_nodes
    for el, na, nb in placements:
        if el.kind in (SERIES_INDUCTOR, SHUNT_INDUCTOR):
            w = 2.0 * np.pi * f_arr
            a[:, na, q] += 1.0
            a[:, q, na] += 1.0
            if nb is not None:
                a[:, nb, q] -= 1.0
                a[:, q, nb] -= 1.0
            a[:, q, q] -= 1j * w * el.value
            q += 1
        elif el.kind == TRANSMISSION_LINE:
            theta = el.electrical_angle(f_arr)
            cos_t, sin_t = np.cos(theta), np.sin(theta)
            qa, qb = q, q + 1
            a[:, na, qa] += 1.0
            a[:, nb, qb] -= 1.0
            a[:, qa, na] += 1.0
            a[:, qa, nb] -= cos_t
            a[:, qa, qb] -= 1j * el.z0 * sin_t
            a[:, qb, qa] += 1.0
            a[:, qb, nb] -= 1j * sin_t / el.z0
            a[:, qb, qb] -= cos_t
            q += 2
        else:
            if el.is_series:
                y = _series_admittance(el, f_arr)
                a[:, na, na] += y
                a[:, na, nb] -= y
                a[:, nb, na] -= y
                a[:, nb, nb] += y
            else:
                y = _shunt_admittance(el, f_arr)
                a[:, na, na] += y
    n_ports = len(port_nodes)
    rhs = np.zeros((n_freq, size, n_ports), dtype=complex)
    for i, node in enumerate(port_nodes):
        a[:, node, node] += 1.0 / z0
        rhs[:, node, i] += 2.0 / z0
    try:
        volts = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        cond = np.array([np.linalg.cond(a[i]) for i in range(n_freq)])
        bad = np.nonzero(~np.isfinite(cond) | (cond > 1e15))[0]
        where = ", ".join(f"{f_arr[i]:g} Hz" for i in bad[:5])
        raise ValueError(f"nodal system is singular at {where}") from None
    s = volts[:, port_nodes, :] - np.eye(n_ports)
    if np.isscalar(f) or np.asarray(f).ndim == 0:
        return s[0]
    return s


def _fold(elements: Sequence[Element], f: np.ndarray, num0: complex, den0: complex):
    """Projective impedance fold toward the junction node.

    The look-in impedance is carried as a homogeneous pair (num, den) with
    Z = num / den, so opens (den = 0) and shorts (num = 0) are exact and no
    infinities enter the arithmetic.  `elements` must be ordered nearest the
    terminated end first; (num0, den0) is the termination itself.  The pair
    is updated in place where it can be (a line takes two scratch arrays),
    and each element's temporaries are freed before the next.
    """
    num = np.full(f.shape, num0, dtype=complex)
    den = np.full(f.shape, den0, dtype=complex)
    for el in elements:
        if el.kind == TRANSMISSION_LINE:
            num = _fold_line(el, f, num, den)
        else:
            _fold_lumped(el, f, num, den)
        scale = np.maximum(np.abs(num), np.abs(den))
        scale[scale == 0.0] = 1.0
        num /= scale
        den /= scale
        del scale
    return num, den


def _fold_line(el: Element, f: np.ndarray, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """A line's step of `_fold`: (num, den) <- (cos num + 1j z0 sin den,
    1j sin / z0 num + cos den).  Updates `den` in place and returns the new
    num."""
    theta = el.electrical_angle(f)
    cos_t, sin_t = np.cos(theta), np.sin(theta, out=theta)
    left, right = np.multiply(cos_t, num), np.multiply(1j * el.z0, sin_t)
    np.multiply(right, den, out=right)
    np.add(left, right, out=left)
    np.multiply(1j, sin_t, out=right)
    np.divide(right, el.z0, out=right)
    np.multiply(right, num, out=right)
    np.multiply(cos_t, den, out=den)
    np.add(right, den, out=den)
    return left


def _fold_lumped(el: Element, f: np.ndarray, num: np.ndarray, den: np.ndarray) -> None:
    """A lumped element's step of `_fold`, in place: num += z den for a
    series impedance z, den += y num for a shunt admittance y, and an exact
    open (1, 0) or short (0, 1) where z or y is infinite."""
    if el.is_series:
        value, top, bottom = _series_impedance(el, f), num, den
    else:
        value, top, bottom = _shunt_admittance(el, f), den, num
    infinite = ~np.isfinite(value)
    value[infinite] = 0.0
    np.add(top, np.multiply(value, bottom, out=value), out=top)
    top[infinite] = 1.0
    bottom[infinite] = 0.0


def z_jj(net: Netlist, frequencies) -> np.ndarray:
    """Impedance seen by the junction, per frequency.

    The wave port is terminated in its port impedance, the DC bias port is
    held stiff (an AC short behind its branch), and the ladder is folded from
    both terminations to the junction node.  Exact opens and shorts are
    handled projectively, so f = 0 and line resonances need no special casing;
    an undamped parallel resonance yields inf.

    Parameters
    ----------
    net : Netlist
    frequencies : ndarray
        Frequencies in Hz (a grid passes `grid.frequencies`).

    Returns
    -------
    ndarray
        Complex impedance, one entry per frequency.
    """
    f = np.asarray(frequencies, dtype=float)
    # The chain is listed wave-port first, the branch junction first, so the
    # chain folds in order and the branch folds reversed.
    num_c, den_c = _fold(net.chain, f, net.wave_port_impedance, 1.0)
    if net.bias_branch is None:
        with np.errstate(divide="ignore", invalid="ignore"):
            z = num_c / den_c
        return z
    num_b, den_b = _fold(tuple(reversed(net.bias_branch)), f, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # z = (num_c num_b) / (den_c num_b + den_b num_c), on the folds' arrays
        np.multiply(den_c, num_b, out=den_c)
        np.add(den_c, np.multiply(den_b, num_c, out=den_b), out=den_c)
        z = np.multiply(num_c, num_b)
        np.divide(z, den_c, out=z)
    z[(num_c == 0.0) | (num_b == 0.0)] = 0.0
    return z


def emission_fom(net: Netlist, frequencies) -> tuple[np.ndarray, np.ndarray]:
    """Pump-emission figure of merit Re Z_JJ(f) / f, with f = 0 excluded.

    Lower values mean less radiated power per unit Josephson frequency when
    the junction runs as a current source at f.  Returns (frequencies, fom).
    """
    f = np.asarray(frequencies, dtype=float)
    z = z_jj(net, f)
    positive = f > 0
    return f[positive], z[positive].real / f[positive]


@dataclass(frozen=True)
class IctaParams:
    """Component values of the amplifier's linear embedding network.

    The chain is: wave port, optional cable, quarter-wave transformer,
    series matching inductor and capacitor, junction node with its parallel
    tank capacitor (and optional junction shunt capacitance).  The bias
    branch is the tank inductor to the DC port node, an RF shorting
    capacitor there, and an optional series bias resistor.
    """

    tank_inductance: float = 1.38e-9
    tank_capacitance: float = 530e-15
    series_inductance: float = 1.94e-9
    series_capacitance: float = 373e-15
    line_impedance: float = 58.8
    line_quarter_wave_frequency: float = 5.88e9
    wave_port_impedance: float = 50.0
    junction_capacitance: float = 0.0
    bias_shunt_capacitance: float = 1e-9
    bias_resistance: float = 0.0
    cable_impedance: float = 55.0
    cable_length: float = 0.0
    cable_velocity_factor: float = 2.0**-0.5


def build_icta(params: IctaParams) -> Netlist:
    """Assemble the amplifier netlist from component values."""
    chain = []
    if params.cable_length > 0.0:
        chain.append(cable(params.cable_impedance, params.cable_length, params.cable_velocity_factor))
    chain.append(quarter_wave_line(params.line_impedance, params.line_quarter_wave_frequency))
    chain.append(series_inductor(params.series_inductance))
    chain.append(series_capacitor(params.series_capacitance))
    chain.append(shunt_capacitor(params.tank_capacitance))
    if params.junction_capacitance > 0.0:
        chain.append(shunt_capacitor(params.junction_capacitance))
    branch = [series_inductor(params.tank_inductance)]
    if params.bias_resistance > 0.0:
        branch.append(series_resistor(params.bias_resistance))
    branch.append(shunt_capacitor(params.bias_shunt_capacitance))
    return Netlist(chain=tuple(chain), bias_branch=tuple(branch))


# Bins per `s_matrix` call of a lazy build.  It bounds the nodal scratch, one
# (unknowns x unknowns) complex matrix per bin, which for the canonical
# netlist on all of `DEFAULT_GRID` at once is 42 MB.
BUILD_BLOCK = 4096


class NetlistResponse:
    """Generalized response matrix F of a netlist on a `FrequencyGrid`, built
    per bin on first read.

    `rows(bins)` builds F through `s_matrix` and `to_frankenstein` at the
    distinct requested bins not built yet, `BUILD_BLOCK` bins at a time, and
    caches them; every frequency is solved on its own, so the rows are
    bitwise those of a full build.  The cache holds the built rows alone, in
    build order, in one array that doubles (up to the grid's size) when it
    fills, with each bin's slot in it.  A lock guards the cache, so a caller
    may share one response across its own threads; the library's sweeps,
    map rows included, read it from one thread.
    `junction_impedance()` is the ladder fold `z_jj`, folded once per
    response, which agrees with F's junction diagonal to about 1e-12
    relative at a few percent of the cost of F.  F refers the wave port, the
    netlist's only one, to `to_frankenstein`'s default 50 ohm; the solver
    drives and reads it on `grid`.
    """

    def __init__(self, netlist: Netlist, grid: FrequencyGrid):
        if not isinstance(grid, FrequencyGrid):
            raise TypeError("a netlist response is built on a FrequencyGrid")
        self.netlist = netlist
        self.grid = grid
        self.frequencies = grid.frequencies
        self.kinds = netlist.port_kinds
        n = len(self.kinds)
        self._values = np.empty((0, n, n), dtype=complex)
        self._slot = np.full(self.n_freq, -1)  # row of `_values` per bin, -1 unbuilt
        self._count = 0
        self._z_jj = None
        self._lock = threading.Lock()

    @property
    def n_ports(self) -> int:
        return len(self.kinds)

    @property
    def n_freq(self) -> int:
        return self.frequencies.size

    def rows(self, bins) -> np.ndarray:
        """F at `bins` (an index array or a slice), shape (n_bins, n_ports,
        n_ports), read-only."""
        with self._lock:
            wanted = np.arange(self.n_freq)[bins]
            missing = np.zeros(self.n_freq, dtype=bool)
            missing[wanted[self._slot[wanted] < 0]] = True
            todo = np.flatnonzero(missing)  # each unbuilt bin once, ascending
            needed = self._count + todo.size
            if needed > len(self._values):
                grown = np.empty((min(max(needed, 2 * len(self._values)), self.n_freq),
                                  *self._values.shape[1:]), dtype=complex)
                grown[: self._count] = self._values[: self._count]
                self._values = grown
            for start in range(0, todo.size, BUILD_BLOCK):
                block = todo[start : start + BUILD_BLOCK]
                f = self.frequencies[block]
                end = self._count + block.size
                self._values[self._count : end] = to_frankenstein(
                    s_matrix(self.netlist, f), self.kinds, frequencies=f
                )
                self._slot[block] = np.arange(self._count, end)
                self._count = end
            out = self._values[self._slot[wanted]]
        out.flags.writeable = False
        return out

    def junction_impedance(self) -> np.ndarray:
        """The junction-port diagonal of F at every bin, by the ladder fold,
        read-only.  A junction at or near an open raises, as F's build would.

        Near an open, cond(M + N S) grows as |f_jj| / (1 to 2 ohm): the
        current-bias row of M + N S is (e_j - S_j) / z0 with
        |1 - S_jj| ~ 2 z0 / |f_jj|.  Bins where |f_jj| reaches COND_LIMIT
        ohm are refused, so the fold raises at least where the full build
        does for this reason.
        """
        with self._lock:
            if self._z_jj is None:
                z = z_jj(self.netlist, self.frequencies)
                bad = np.nonzero(~(np.abs(z) < COND_LIMIT))[0]
                if bad.size:
                    where = ", ".join(f"{self.frequencies[i]:g} Hz" for i in bad[:5])
                    raise SingularConversionError(
                        f"junction impedance reaches {COND_LIMIT:g} ohm at {where}",
                        frequencies=self.frequencies[bad],
                    )
                z.flags.writeable = False
                self._z_jj = z
        return self._z_jj


def frankenstein_matrix(net: Netlist, grid: FrequencyGrid) -> NetlistResponse:
    """The netlist's generalized response matrix over the grid, referenced to
    50 ohm and built lazily per bin."""
    return NetlistResponse(net, grid)


def _element_to_dict(el: Element) -> dict:
    return {k: v for k, v in asdict(el).items() if v is not None}


def _element_from_dict(d: dict) -> Element:
    known = {"kind", "value", "z0", "quarter_wave_frequency", "length", "velocity_factor"}
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown element fields: {sorted(unknown)}")
    return Element(**d)


def netlist_to_dict(net: Netlist) -> dict:
    d = {
        "wave_port_impedance": net.wave_port_impedance,
        "chain": [_element_to_dict(el) for el in net.chain],
    }
    if net.bias_branch is not None:
        d["bias_branch"] = [_element_to_dict(el) for el in net.bias_branch]
    return d


def netlist_from_dict(d: dict) -> Netlist:
    known = {"wave_port_impedance", "chain", "bias_branch"}
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown netlist fields: {sorted(unknown)}")
    if "chain" not in d:
        raise ValueError("netlist requires a chain")
    branch = d.get("bias_branch")
    return Netlist(
        chain=tuple(_element_from_dict(e) for e in d["chain"]),
        bias_branch=None if branch is None else tuple(_element_from_dict(e) for e in branch),
        wave_port_impedance=d.get("wave_port_impedance", 50.0),
    )


def save_netlist(net: Netlist, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(netlist_to_dict(net), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_netlist(path) -> Netlist:
    with open(path, "r", encoding="utf-8") as fh:
        return netlist_from_dict(json.load(fh))


def netlist_hash(net: Netlist) -> str:
    """Stable content hash of a netlist (sha256 of its canonical JSON)."""
    text = json.dumps(netlist_to_dict(net), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
