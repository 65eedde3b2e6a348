"""Why measured gain curves wiggle: standing waves on the input cable.

Any real setup has a cable between the last calibrated reference plane and
the amplifier. The amplifier is reflective (that is how a negative-
resistance stage works), so the cable hosts a standing wave and the gain
ripples with a period set by the round-trip delay. This demo adds a cable
to the canonical network, extracts the ripple period from the delay-domain
peak of the gain trace, and shows that the period is NOT v / (2 L): the
amplifier's own input reflection adds about a quarter nanosecond that is
the same for any cable length.
"""

import numpy as np

from ictasim import (
    BiasPoint,
    FrequencyGrid,
    IctaParams,
    SolverOptions,
    build_icta,
    frankenstein_matrix,
    gain_profile,
)
from dataclasses import replace

C0 = 299792458.0


def ripple_period(freqs, gain_db):
    # remove the plateau envelope, window, zero-pad, pick the delay peak
    g = gain_db - np.polyval(np.polyfit(freqs, gain_db, 2), freqs)
    pad = 1 << 14
    spec = np.abs(np.fft.rfft(g * np.hanning(g.size), pad))
    tau = np.fft.rfftfreq(pad, freqs[1] - freqs[0])
    k0 = np.searchsorted(tau, 0.6e-9)
    k = k0 + int(np.argmax(spec[k0:]))
    a, b, c = spec[k - 1], spec[k], spec[k + 1]
    return 1.0 / ((k + 0.5 * (a - c) / (a - 2 * b + c)) * tau[1])


grid = FrequencyGrid(16e6, 2048)
points = np.arange(4.4e9, 7.6e9 + 1, 80e6)
bias = BiasPoint(f_dc=12e9, i_c=150e-9)
options = SolverOptions(max_iterations=4000)
velocity = C0 / np.sqrt(2)

print("55 ohm input cable, velocity c / sqrt(2), I_c backed off to 150 nA")
print("(at full gain the ripple crests would cross the oscillation threshold)\n")

for length in (0.330, 0.100):
    params = replace(IctaParams(), cable_impedance=55.0, cable_length=length,
                     cable_velocity_factor=1 / np.sqrt(2))
    response = frankenstein_matrix(build_icta(params), grid)
    profile = gain_profile(response, bias, points, options=options)

    trace = ""
    lo, hi = profile.gain_db.min(), profile.gain_db.max()
    for g in profile.gain_db:
        trace += " .:-=+*#%@"[int(np.clip(9 * (g - lo) / (hi - lo), 0, 9))]
    period = ripple_period(profile.frequencies, profile.gain_db)
    bare = velocity / (2 * length)
    extra = 1 / period - 2 * length / velocity
    print(f"{length * 1e3:.0f} mm cable   gain 4.4-7.6 GHz: {trace}")
    print(f"  ripple span {np.ptp(profile.gain_db):.1f} dB, period {period / 1e6:.1f} MHz")
    print(f"  bare cable v / 2L would give {bare / 1e6:.1f} MHz; the deficit is")
    print(f"  an extra {extra * 1e12:.0f} ps of amplifier reflection delay\n")

print("the extra delay is a property of the amplifier, not the cable, which")
print("is why both lengths report the same number")
