"""How much signal can it take? Saturation and the 1 dB compression point.

The junction has a finite supply of pump energy: crank the input power and
the gain compresses. This demo sweeps input power at a mid-band signal
frequency, fits the smooth-knee saturation model to the curve, and reports
the 1 dB compression point two ways: from the fit's closed form and from
the raw crossing. It then moves to the degenerate point f_s = f_dc / 2,
where gain depends on the signal phase, and shows the amplification /
deamplification envelope that a single-phase sweep would hide.
"""

import numpy as np

from ictasim import (
    BiasPoint,
    FrequencyGrid,
    IctaParams,
    SolverOptions,
    build_icta,
    compression_sweep,
    frankenstein_matrix,
    p1db,
    rapp_fit,
    raw_p1db,
)

grid = FrequencyGrid(16e6, 2048)
bias = BiasPoint(f_dc=12e9, i_c=280e-9)
response = frankenstein_matrix(build_icta(IctaParams()), grid)
options = SolverOptions(max_iterations=4000)

powers = np.arange(-135.0, -99.0, 2.0)
curve = compression_sweep(response, bias, 5.12e9, powers, options=options)

print("compression at f_s = 5.12 GHz:")
print("   P_in (dBm)   gain (dB)")
for p, g, ok in zip(curve.power_in_dbm, curve.gain_db[0], curve.converged[0]):
    print(f"   {p:8.1f}   {g:8.2f}" + ("" if ok else "   (not converged)"))

fit = rapp_fit(curve)
print(f"\nsaturation model fit: small-signal gain {fit.gain_db:.2f} dB, "
      f"saturated output {fit.p_sat_dbm:.1f} dBm, knee sharpness {fit.knee:.2f}")
print(f"1 dB compression input: {p1db(fit):.1f} dBm (closed form from the fit), "
      f"{raw_p1db(curve.power_in_dbm, curve.gain_db[0]):.1f} dBm (raw crossing)")
print(f"fit residual {fit.residual_db:.3f} dB rms")

# at the degenerate point the signal interferes with its own idler, so the
# gain splits into a phase envelope; sample eight drive phases
degen = compression_sweep(
    response, bias, 6.0e9, np.arange(-140.0, -110.0, 3.0), options=options,
)
lo, hi = degen.envelope()
print(f"\ndegenerate point f_s = f_dc / 2 = 6 GHz, {degen.phases.size} phases:")
print("   P_in (dBm)   min gain   max gain   (dB)")
for p, g_lo, g_hi in zip(degen.power_in_dbm, lo, hi):
    print(f"   {p:8.1f}   {g_lo:8.2f}   {g_hi:8.2f}")
print("phase-sensitive: the same tone is amplified or squashed depending on")
print("its phase against the pump, an effect the map demos sample at one phase")
