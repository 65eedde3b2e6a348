"""One junction, many bands: gain as a function of pump and signal.

The DC voltage is the only tuning knob. Sweeping f_dc moves the idler
f_dc - f_s, so the high-gain region traces a parallelogram: both signal
and idler must sit inside the fixed matched band of the passive network.
Two feature lines cut across the map: the pump line f_s = f_dc (the
output bin contains the pump's own emission, so the apparent gain
explodes) and the degenerate line f_s = f_dc / 2 (signal and idler
merge; gain turns phase sensitive). This demo solves a small map,
renders it as ASCII art, and checks each row against the window
predicted from the passive band alone.
"""

import numpy as np

from ictasim import (
    FrequencyGrid,
    IctaParams,
    SolverOptions,
    band_check,
    build_icta,
    frankenstein_matrix,
    gain_map_fdc,
)

grid = FrequencyGrid(16e6, 2048)
net = build_icta(IctaParams())
response = frankenstein_matrix(net, grid)
band = band_check(net, grid.frequencies)

signal = np.arange(4.0e9, 8.0e9 + 1, 320e6)      # 13 columns
pump = np.arange(9.6e9, 14.4e9 + 1, 960e6)       # 6 rows
gmap = gain_map_fdc(
    response, signal, pump, i_c=200e-9, options=SolverOptions(max_iterations=2500),
)

shades = " .:-=+*#%@"
print(f"gain map, I_c = 200 nA ({gmap.converged.sum()}/{gmap.converged.size} "
      f"solves converged; one character per 1.2 dB)\n")
print("f_dc \\ f_s " + "".join(f"{f / 1e9:5.1f}" for f in signal[::2])
      + "      band-predicted window")
for i, f_dc in enumerate(pump):
    row = ""
    for j in range(signal.size):
        g = gmap.values[i, j] if gmap.converged[i, j] else np.nan
        row += "?" if not np.isfinite(g) else shades[int(np.clip(g / 1.2, 0, 9))]
    lo = max(band.band_lo_hz, f_dc - band.band_hi_hz)
    hi = min(band.band_hi_hz, f_dc - band.band_lo_hz)
    print(f"  {f_dc / 1e9:5.2f} GHz  {row}     "
          f"{lo / 1e9:.2f} to {hi / 1e9:.2f} GHz")

print("\nboth the signal column and its idler must stay inside the "
      f"{band.band_lo_hz / 1e9:.2f}-{band.band_hi_hz / 1e9:.2f} GHz matched band,")
print("so the bright window shifts right, one half step per pump step")

# the degenerate line: signal and idler merge and the response picks up a
# phase; at a fixed drive phase that shows up as a spike or a dip
print("\ndegenerate column f_s = f_dc / 2 against its neighbors:")
for i, f_dc in enumerate(pump):
    j = int(np.argmin(np.abs(signal - f_dc / 2)))
    if abs(signal[j] - f_dc / 2) > 1.0 or j in (0, signal.size - 1):
        continue
    trio = gmap.values[i, j - 1 : j + 2]
    print(f"  f_dc {f_dc / 1e9:5.2f} GHz: {trio[0]:+6.2f}  [{trio[1]:+6.2f}]  "
          f"{trio[2]:+6.2f} dB  (anomaly {trio[1] - (trio[0] + trio[2]) / 2:+.2f} dB)")
