"""Where can this amplifier work? Walk the passive embedding network.

The amplifier is a Josephson junction looking out into a matching network:
a quarter-wave transformer, a series L-C link, a shunt pad capacitance, and
a bias tee. Parametric gain needs the junction to see a real impedance
above the 50 ohm feed, so the usable band is simply the span where
Re Z_JJ(f) > 50 ohm. This script builds the canonical network, sweeps the
junction-side impedance, and prints the matched band that every later demo
operates inside.
"""

import numpy as np

from ictasim import FrequencyGrid, IctaParams, band_check, build_icta, z_jj

grid = FrequencyGrid(16e6, 2048)
net = build_icta(IctaParams())

def describe(element):
    if element.kind == "transmission-line":
        return (f"{element.kind}: {element.z0} ohm, quarter wave at "
                f"{element.quarter_wave_frequency / 1e9:.2f} GHz")
    return f"{element.kind}: {element.value:.3g}"

print(f"canonical network (feed impedance {net.wave_port_impedance:.0f} ohm):")
print("  port-to-junction chain:")
for element in net.chain:
    print(f"    {describe(element)}")
print("  junction-to-DC bias branch:")
for element in net.bias_branch:
    print(f"    {describe(element)}")

# The quarter-wave line transforms the 50 ohm feed to 58.8^2 / 50 at its
# design frequency; check the textbook arithmetic before trusting anything.
f = grid.frequencies
z = z_jj(net, f)
k = int(round(5.88e9 / grid.spacing))
print(f"\nZ_JJ at the transformer design frequency 5.88 GHz: "
      f"{z[k].real:6.2f} {z[k].imag:+6.2f}j ohm "
      f"(ideal transform {58.8**2 / 50.0:.2f} ohm)")

report = band_check(net, f)
print(f"\nmatched band (Re Z_JJ > {report.reference_impedance:.0f} ohm):")
print(f"  {report.band_lo_hz / 1e9:.3f} to {report.band_hi_hz / 1e9:.3f} GHz "
      f"({report.bandwidth_hz / 1e9:.2f} GHz wide)")
print(f"  peak {report.peak_impedance:.1f} ohm at {report.peak_frequency / 1e9:.3f} GHz")
print(f"  rolloff widths {report.lower_rolloff_hz / 1e6:.0f} / "
      f"{report.upper_rolloff_hz / 1e6:.0f} MHz (asymmetry {report.asymmetry:.2f})")

print("\n   f (GHz)   Re Z_JJ   Im Z_JJ")
for f_probe in np.arange(3.0e9, 10.5e9, 0.5e9):
    j = int(round(f_probe / grid.spacing))
    mark = " <- in band" if report.band_lo_hz <= f[j] <= report.band_hi_hz else ""
    print(f"  {f[j] / 1e9:7.2f}   {z[j].real:7.2f}   {z[j].imag:+8.2f}{mark}")
