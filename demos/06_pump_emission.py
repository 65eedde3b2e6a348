"""The amplifier leaks its own pump: emission at f_dc and its harmonics.

A voltage-biased junction oscillates at f_dc whether or not a signal is
present, and some of that oscillation couples out of the signal port. For
a quantum-limited readout chain this backaction matters, so the simulator
reports the emitted line power, its photon flux, and the harmonic comb.
This demo sweeps the critical current and prints the photon budget at the
bias point used throughout (the junction well below its oscillation
threshold, emission growing monotonically with I_c).
"""

import numpy as np

from ictasim import (
    BiasPoint,
    FrequencyGrid,
    IctaParams,
    build_icta,
    dbm_to_watts,
    frankenstein_matrix,
    photon_rate,
    pump_emission,
)

grid = FrequencyGrid(16e6, 2048)
response = frankenstein_matrix(build_icta(IctaParams()), grid)  # shared by every I_c
f_dc = 12.256e9  # on the 16 MHz grid

print(f"pump emission out of the signal port at f_dc = {f_dc / 1e9:.3f} GHz\n")
print("   I_c (nA)   line power (dBm)   photons / s   2nd harmonic (dBm)")
for i_c in (70e-9, 140e-9, 210e-9, 280e-9):
    res = pump_emission(response, BiasPoint(f_dc=f_dc, i_c=i_c))
    h2 = res.harmonics_dbm[0] if res.harmonics_dbm else float("-inf")
    print(f"   {i_c * 1e9:7.0f}   {res.power_dbm:14.2f}   {res.photon_rate:11.3e}"
          f"   {h2:14.2f}")

print("\nrule-of-thumb conversion at this frequency:")
for dbm in (-110.0, -105.0, -100.0):
    print(f"   {dbm:.0f} dBm  ->  {photon_rate(dbm_to_watts(dbm), f_dc):.2e} photons/s")

print("\nemission rises with I_c; past the oscillation threshold the junction")
print("would lock to the external circuit instead, which the solver reports")
print("as a failure to converge rather than a number")
