#!/usr/bin/env python3
"""Walk through the headline Rb87 scenario and print every key number.

Run from the repository root after `pip install -e .`:

    python3 scripts/reproduce_numbers.py
"""

import numpy as np

import mwselect as mw

SP = mw.get_species("Rb87")
ETA = 0.25  # T/m (25 G/cm)
TAU = 10e-6
DELTA_T = 28e-3
DZ0 = 3e-6
Z2 = 1e-2


def main() -> None:
    cfg = mw.FieldConfig(eta=ETA, bias=0.0, species=SP)
    br = mw.StretchedBranch(sigma=1)

    print("== field and atom scales ==")
    print(f"g_sum   = {SP.g_sum:.6e} J/T   gamma1 = {SP.gamma1:.7f}   "
          f"gamma2 = {SP.gamma2:.6e}")
    print(f"kappa   = {mw.kappa(cfg):.7f} 1/m")
    print(f"epsilon = {mw.epsilon(cfg):.6e}  (motional coupling, dimensionless)")
    f0 = mw.transition_angular_frequency(br, 0.0, cfg)
    f1 = mw.transition_angular_frequency(br, Z2, cfg)
    print(f"transition at z=0:    {f0 / 2 / np.pi:.6e} Hz")
    print(f"transition at z=1cm:  {(f1 - f0) / 2 / np.pi / 1e6:+.3f} MHz from zero-field")

    print("\n== selected widths ==")
    p1 = mw.PulseSpec.resonant_at(0.0, cfg, t0=0.0, tau=TAU, branch=br)
    p2 = mw.PulseSpec.resonant_at(Z2, cfg, t0=DELTA_T, tau=TAU, branch=br)
    for tau in (TAU, TAU / 2):
        pulse = mw.PulseSpec.resonant_at(0.0, cfg, t0=0.0, tau=tau, branch=br)
        sel = mw.select(pulse, cfg)
        dv = mw.velocity_width(sel.position_width, DELTA_T)
        print(f"tau = {tau * 1e6:4.1f} us:  dz = {sel.position_width * 1e6:7.3f} um "
              f"(low-field est {sel.position_width_low_field * 1e6:7.3f} um), "
              f"dv = {dv * 1e3:.4f} mm/s")
    k_doppler = 2.0 * 2.0 * np.pi / 780e-9  # counterpropagating optical pair
    print(f"optical two-photon reference (1 ms): "
          f"{mw.raman_velocity_width(k_doppler, 1e-3) * 1e6:.2f} um/s")

    print("\n== upper-branch ballistics ==")
    g = mw.g_effective(SP, ETA, mw.Level.UPPER, 1)
    print(f"effective g (sigma=+1): {g:.4f} m/s^2   (sigma=-1: "
          f"{mw.g_effective(SP, ETA, mw.Level.UPPER, -1):.4f})")
    v0 = g * DELTA_T
    st = mw.WavepacketState.minimum_uncertainty(0.0, v0, DZ0, mw.Level.UPPER, 1)
    z_ap, v_ap = mw.evolve_expected(st, DELTA_T, cfg)
    print(f"launch at {v0:.4f} m/s -> apex {z_ap * 100:.4f} cm, v = {v_ap:+.1e} m/s "
          f"after {DELTA_T * 1e3:.0f} ms")

    print("\n== packet spreading and flip probabilities ==")
    dz_t = mw.spread_width(DZ0, DELTA_T, SP)
    print(f"dz: {DZ0 * 1e6:.1f} um -> {dz_t * 1e6:.4f} um after {DELTA_T * 1e3:.0f} ms")
    for tau in (TAU, TAU / 2):
        pa = mw.PulseSpec.resonant_at(0.0, cfg, t0=0.0, tau=tau, branch=br)
        for dz in (DZ0, dz_t):
            stp = mw.WavepacketState.minimum_uncertainty(
                0.0, 0.0, dz, mw.Level.LOWER, 1
            )
            p = mw.transition_probability(stp, pa, cfg)
            print(f"  tau = {tau * 1e6:4.1f} us, dz = {dz * 1e6:6.3f} um:  P = {p:.4f}")

    print("\n== phase-space selection cell ==")
    sel1 = mw.select(p1, cfg)
    cell = mw.selection_cell(sel1, mw.select(p2, cfg), cfg)
    print(f"v_center  = {cell.v_center * 1e3:+.4f} mm/s at the second pulse")
    print(f"v support = {cell.velocity_support * 1e3:.4f} mm/s, "
          f"cell area = {cell.area:.4e} m^2/s")

    print("\n== Monte Carlo (band decision) ==")
    spec = mw.EnsembleSpec(
        n=50_000, z_mean=0.0, z_rms=1e-4, v_mean=cell.v_center + g * DELTA_T,
        v_rms=3e-3, dz0=DZ0, seed=20260815, decision_mode="band",
    )
    result = mw.run_monte_carlo(spec, p1, p2, cfg)
    s = result.summary()
    print(f"survived first pulse: {s['n_survived_first']} / {s['n_total']}")
    print(f"survived both:        {s['n_survived_both']} "
          f"(fraction {s['fraction_both']:.2e})")
    print(f"survivor v range:     {s['survivor_v_range_m_s'] * 1e3:.4f} mm/s "
          f"(cell support {cell.velocity_support * 1e3:.4f} mm/s)")

    print("\n== field stability ==")
    budget = mw.stability_budget(sel1, cfg, displacement=Z2)
    print(f"bias tolerance:      {budget.bias_tolerance_G * 1e3:.3f} mG")
    print(f"gradient tolerance:  {budget.gradient_fraction:.3e} fractional "
          f"over {budget.displacement_m * 100:.0f} cm")
    coils = mw.CoilPair(radius=0.05, current=5.79233, half_separation=0.025, turns=100)
    print(f"coil pair gradient:  {mw.gradient_at_center(coils) * 1e2:.4f} G/cm "
          f"(linear to 1% out to {mw.linearity_region(coils) * 1e3:.2f} mm)")


if __name__ == "__main__":
    main()
