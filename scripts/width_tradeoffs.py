#!/usr/bin/env python3
"""Scan pulse duration and packet width: selectivity vs transfer efficiency.

Shorter pulses select wider slices but flip a given packet more
completely; this prints the trade-off table for Rb87 at 25 G/cm.

    python3 scripts/width_tradeoffs.py [gradient_T_per_m]
"""

import sys

import mwselect as mw

SP = mw.get_species("Rb87")
DELTA_T = 28e-3


def main() -> None:
    eta = float(sys.argv[1]) if len(sys.argv) > 1 else 0.25
    cfg = mw.FieldConfig(eta=eta, bias=0.0, species=SP)
    br = mw.StretchedBranch(sigma=1)
    print(f"gradient {eta * 1e2:.1f} G/cm, pulse gap {DELTA_T * 1e3:.0f} ms")
    header = f"{'tau_us':>7} {'dz_um':>9} {'dv_mm_s':>9}"
    widths = (1e-6, 3e-6, 10e-6)
    header += "".join(f"  P(dz0={w * 1e6:.0f}um)" for w in widths)
    print(header)
    for tau_us in (2, 5, 10, 20, 50, 100):
        tau = tau_us * 1e-6
        pulse = mw.PulseSpec.resonant_at(0.0, cfg, t0=0.0, tau=tau, branch=br)
        sel = mw.select(pulse, cfg)
        dv = mw.velocity_width(sel.position_width, DELTA_T)
        row = f"{tau_us:>7} {sel.position_width * 1e6:>9.3f} {dv * 1e3:>9.4f}"
        for w in widths:
            st = mw.WavepacketState.minimum_uncertainty(
                0.0, 0.0, w, mw.Level.LOWER, 1
            )
            row += f"  {mw.transition_probability(st, pulse, cfg):>11.4f}"
        print(row)


if __name__ == "__main__":
    main()
