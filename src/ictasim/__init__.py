"""Semiclassical simulator for DC-voltage-biased Josephson parametric amplifiers."""

__version__ = "0.1.0"

# numpy 2 loads these submodules on first use.  The solver's transforms
# read numpy.fft, its probe seed numpy.random, and np.unique (the response
# cache) numpy.ma, so they load with the package rather than inside a
# caller's first solve.
import numpy.fft
import numpy.ma
import numpy.random

from ictasim.circuit import (
    DEFAULT_GRID,
    Element,
    FrequencyGrid,
    IctaParams,
    Netlist,
    NetlistResponse,
    build_icta,
    emission_fom,
    frankenstein_matrix,
    load_netlist,
    s_matrix,
    save_netlist,
    z_jj,
)
from ictasim.design import BandReport, band_check
from ictasim.frankenstein import (
    PortKind,
    SingularConversionError,
    junction_row,
    to_frankenstein,
)
from ictasim.solver import (
    BiasPoint,
    PowerBalance,
    SolutionState,
    SolverOptions,
    Stimulus,
    Tone,
    bias_voltage,
    dbm_to_watts,
    gain,
    josephson_frequency,
    power_balance,
    watts_to_dbm,
)
from ictasim.sweeps import (
    CompressionCurve,
    EmissionResult,
    FitFailedError,
    GainMap,
    GainProfile,
    NotFittableError,
    RappFit,
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
    raw_p1db,
)

__all__ = [
    "DEFAULT_GRID",
    "BandReport",
    "BiasPoint",
    "CompressionCurve",
    "Element",
    "EmissionResult",
    "FitFailedError",
    "FrequencyGrid",
    "GainMap",
    "GainProfile",
    "IctaParams",
    "Netlist",
    "NetlistResponse",
    "NotFittableError",
    "PortKind",
    "PowerBalance",
    "RappFit",
    "SingularConversionError",
    "SolutionState",
    "SolverOptions",
    "Stimulus",
    "Tone",
    "band_check",
    "bias_voltage",
    "build_icta",
    "compression_sweep",
    "dbm_to_watts",
    "emission_fom",
    "frankenstein_matrix",
    "gain",
    "gain_map_fdc",
    "gain_map_ic",
    "gain_profile",
    "josephson_frequency",
    "junction_row",
    "load_netlist",
    "p1db",
    "photon_rate",
    "plateau_metrics",
    "power_balance",
    "pump_emission",
    "rapp_fit",
    "rapp_gain_db",
    "raw_p1db",
    "s_matrix",
    "save_netlist",
    "to_frankenstein",
    "watts_to_dbm",
    "z_jj",
    "__version__",
]
