"""Linear response matrices for networks with mixed port boundary conditions.

A passive multiport is usually described by its voltage scattering matrix S,
referenced to a common impedance Z0.  When some ports are instead held by
ideal sources, the natural response object generalizes S: each port is either

* a wave port (input and output are propagating voltage waves at the port
  impedance),
* a voltage-bias port (input is the applied voltage, output is the current
  drawn by the circuit), or
* a current-bias port (input is the injected current, output is the voltage
  developed at the port).

The generalized matrix, conventionally called the Frankenstein matrix F,
relates these mixed inputs and outputs through a^out = F a^in.  It is obtained
from S by F = (K + L S)(M + N S)^-1 with diagonal matrices K, L, M, N whose
entries depend only on the port kind and the reference impedance.  Entries of
F carry non-uniform units (e.g. V/A on a current-bias diagonal).

`to_frankenstein` returns F as a plain (n_freq, n_ports, n_ports) array.
The solver reads it through the one response type, the `NetlistResponse`
of `circuit.frankenstein_matrix`: two methods, `rows(bins)`, F at some
bins, built on first read, and `junction_impedance()`, the junction
diagonal at every bin, plus its `kinds` and `grid`.  Port names live on the
`circuit.Netlist`, not on a response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .circuit import NetlistResponse

WAVE = "wave"
VOLTAGE_BIAS = "voltage-bias"
CURRENT_BIAS = "current-bias"

_KINDS = (WAVE, VOLTAGE_BIAS, CURRENT_BIAS)

# Condition number of (M + N S) above which the conversion raises
# SingularConversionError naming the offending frequencies.
COND_LIMIT = 1e12


class SingularConversionError(ValueError):
    """Raised when (M + N S) is numerically singular at some frequency."""

    def __init__(self, message: str, frequencies=None):
        super().__init__(message)
        self.frequencies = frequencies


@dataclass(frozen=True)
class PortKind:
    """Boundary condition of one port.

    Parameters
    ----------
    kind : str
        One of "wave", "voltage-bias", "current-bias".
    impedance : float, optional
        Port impedance in ohm.  Required for wave ports, meaningless for
        bias ports.
    """

    kind: str
    impedance: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown port kind {self.kind!r}")
        if self.kind == WAVE:
            if self.impedance is None or not np.isfinite(self.impedance) or self.impedance <= 0:
                raise ValueError("wave port requires a finite positive impedance")
        elif self.impedance is not None:
            raise ValueError(f"{self.kind} port takes no impedance")

    @classmethod
    def wave(cls, impedance: float = 50.0) -> "PortKind":
        return cls(WAVE, float(impedance))

    @classmethod
    def voltage_bias(cls) -> "PortKind":
        return cls(VOLTAGE_BIAS)

    @classmethod
    def current_bias(cls) -> "PortKind":
        return cls(CURRENT_BIAS)


def klmn(kinds: Sequence[PortKind], z0: float = 50.0):
    """Diagonals of the conversion matrices K, L, M, N.

    Parameters
    ----------
    kinds : sequence of PortKind
        Boundary condition per port.
    z0 : float
        Reference impedance of the scattering matrix in ohm.

    Returns
    -------
    k, l, m, n : ndarray
        Length-n_ports float arrays holding the diagonal entries.
    """
    if z0 <= 0 or not np.isfinite(z0):
        raise ValueError("reference impedance must be positive and finite")
    n_ports = len(kinds)
    k = np.empty(n_ports)
    l = np.empty(n_ports)
    m = np.empty(n_ports)
    n = np.empty(n_ports)
    for i, pk in enumerate(kinds):
        if pk.kind == VOLTAGE_BIAS:
            k[i], l[i], m[i], n[i] = 1.0 / z0, -1.0 / z0, 1.0, 1.0
        elif pk.kind == CURRENT_BIAS:
            k[i], l[i], m[i], n[i] = 1.0, 1.0, 1.0 / z0, -1.0 / z0
        else:
            z = pk.impedance / z0
            k[i] = n[i] = 0.5 * (1.0 - z)
            l[i] = m[i] = 0.5 * (1.0 + z)
    return k, l, m, n


def _only_port(kinds: Sequence[PortKind], kind: str) -> int:
    """Index of the unique port of `kind`; none or several raise ValueError."""
    ports = [i for i, pk in enumerate(kinds) if pk.kind == kind]
    if len(ports) != 1:
        raise ValueError(f"expected exactly one {kind} port, found {len(ports)}")
    return ports[0]


def junction_port(kinds: Sequence[PortKind]) -> int:
    """Index of the junction: the unique current-bias port."""
    return _only_port(kinds, CURRENT_BIAS)


def wave_port(kinds: Sequence[PortKind]) -> int:
    """Index of the unique wave port, where every stimulus tone enters and
    every gain and emission is read: the amplifier works in reflection."""
    return _only_port(kinds, WAVE)


def to_frankenstein(
    s: np.ndarray,
    kinds: Sequence[PortKind],
    z0: float = 50.0,
    frequencies: np.ndarray | None = None,
) -> np.ndarray:
    """Convert a scattering matrix to the generalized response matrix.

    Parameters
    ----------
    s : ndarray
        Scattering matrix, shape (n_ports, n_ports) or
        (n_freq, n_ports, n_ports), referenced to z0.
    kinds : sequence of PortKind
        Boundary condition per port.
    z0 : float
        Reference impedance of s in ohm.
    frequencies : ndarray, optional
        Frequency axis, used only to name the offending frequencies in a
        `SingularConversionError`.

    Returns
    -------
    ndarray
        Complex F, shape (n_freq, n_ports, n_ports).
    """
    s = np.asarray(s, dtype=complex)
    if s.ndim == 2:
        s = s[np.newaxis]
    if s.ndim != 3 or s.shape[-1] != s.shape[-2] or s.shape[-1] != len(kinds):
        raise ValueError("scattering matrix shape does not match port kinds")
    k, l, m, n = klmn(kinds, z0)
    eye = np.eye(len(kinds))
    # K, L, M, N are diagonal: left multiplication scales rows.
    left = k[:, None] * eye + l[:, None] * s
    right = m[:, None] * eye + n[:, None] * s
    cond = np.linalg.cond(right)
    bad = np.nonzero(~(cond < COND_LIMIT))[0]
    if bad.size:
        if frequencies is not None:
            where = ", ".join(f"{frequencies[i]:g} Hz" for i in bad[:5])
        else:
            where = ", ".join(f"index {i}" for i in bad[:5])
        more = "" if bad.size <= 5 else f" (+{bad.size - 5} more)"
        raise SingularConversionError(
            f"(M + N S) is singular beyond condition {COND_LIMIT:g} at {where}{more}",
            frequencies=None if frequencies is None else frequencies[bad],
        )
    # F right = left  =>  F = left right^-1, via the transposed solve.
    values = np.linalg.solve(np.swapaxes(right, -1, -2), np.swapaxes(left, -1, -2))
    return np.swapaxes(values, -1, -2)


@dataclass(frozen=True)
class JunctionRow:
    """What the nonlinear solver reads of a response: the response itself,
    on its `grid`, and `f_jj`, its junction-port diagonal (an impedance per
    bin).  The solver reads the response's `rows` only at its tone bins, for
    the coupling F[k, junction, wave port] of each tone into the junction;
    tones lie on bins k >= 1, so the stiff DC bias (`solver.outputs`) never
    enters the drive."""

    response: "NetlistResponse"
    f_jj: np.ndarray


def junction_row(f: "NetlistResponse") -> JunctionRow:
    """The junction row of a response for the fixed-point iteration; `f_jj`
    is `f.junction_impedance()`, F's diagonal at `junction_port(f.kinds)`."""
    return JunctionRow(response=f, f_jj=f.junction_impedance())
