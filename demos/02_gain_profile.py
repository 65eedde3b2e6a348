"""The headline result: 10 dB of gain over a 3 GHz plateau.

Bias the junction so its oscillation frequency f_dc = 2eV/h sits at 12 GHz
and inject a weak tone. Every signal at f_s is amplified together with an
idler at f_dc - f_s; wherever both tones land inside the matched band the
gain stacks up. This demo sweeps the signal across the band, prints the
profile as a bar chart, and reports the plateau metrics (a coarse grid
keeps it fast; the shipped defaults refine it without changing the story).
"""

import numpy as np

from ictasim import (
    BiasPoint,
    FrequencyGrid,
    IctaParams,
    SolverOptions,
    bias_voltage,
    build_icta,
    frankenstein_matrix,
    gain_profile,
)

grid = FrequencyGrid(16e6, 2048)
bias = BiasPoint(f_dc=12e9, i_c=280e-9)
print(f"pump: f_dc = {bias.f_dc / 1e9:.1f} GHz, which is V_dc = "
      f"{bias_voltage(bias.f_dc) * 1e6:.2f} uV across the junction")
print(f"junction critical current {bias.i_c * 1e9:.0f} nA, probe at -140 dBm\n")

points = np.arange(4.0e9, 8.0e9 + 1, 160e6)
profile = gain_profile(
    frankenstein_matrix(build_icta(IctaParams()), grid),
    bias,
    points,
    options=SolverOptions(max_iterations=3000),
)

print("   f_s (GHz)   gain (dB)   idler (GHz)")
for f_s, g in zip(profile.frequencies, profile.gain_db):
    bar = "#" * max(int(round(2 * g)), 0)
    tag = " degenerate" if abs(f_s - bias.f_dc / 2) < grid.spacing else ""
    print(f"  {f_s / 1e9:8.2f}   {g:8.2f}   {(bias.f_dc - f_s) / 1e9:8.2f}  {bar}{tag}")

print(f"\nplateau (gain >= {profile.threshold_db:.0f} dB): "
      f"{profile.band_lo_hz / 1e9:.2f} to {profile.band_hi_hz / 1e9:.2f} GHz, "
      f"{profile.bandwidth_hz / 1e9:.2f} GHz wide, "
      f"average {profile.average_gain_db:.2f} dB")
print(f"signal and idler swap roles around f_dc / 2 = {bias.f_dc / 2e9:.1f} GHz, "
      f"so the profile is symmetric about it")
print(f"power balance worst case: {np.nanmax(profile.balance_error):.2e} relative")
