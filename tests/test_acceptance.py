"""Acceptance gate: the headline numbers and cross-checks in one place.

Each criterion prints a single [PASS]/[FAIL] line (written past pytest's
capture so the verdicts always appear in the run log) and then asserts.
All scenarios use Rb87 in a 25 G/cm gradient with zero bias unless the
check itself says otherwise.
"""

import numpy as np
import pytest

import mwselect as mw
from mwselect import probability
from mwselect.breit_rabi import Level
from mwselect.constants import CONST

TAU = 10e-6
DELTA_T = 28e-3
Z_SECOND = 1e-2
DZ0 = 3e-6
SEED = 20260815


@pytest.fixture()
def report(capsys):
    """Verdict printer that bypasses capture so the line reaches the log."""

    def _report(cid: str, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {cid}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def _pulse(cfg, z, tau, t0=0.0):
    return mw.PulseSpec.resonant_at(z, cfg, t0=t0, tau=tau,
                                    branch=mw.StretchedBranch(1))


def _packet_probability(cfg, z, tau, dz):
    pulse = _pulse(cfg, z, tau)
    state = mw.WavepacketState.minimum_uncertainty(
        z=z, v=0.0, dz=dz, level=Level.LOWER, sigma=1
    )
    return mw.transition_probability(state, pulse, cfg)


def test_criterion_1_energy_scale(cfg, rb87, report):
    eps = mw.epsilon(cfg)
    ok = abs(eps / 8.9e-21 - 1.0) < 0.02
    report("C1 recoil-scale epsilon", ok,
            f"epsilon = {eps:.4e} vs 8.9e-21 ({abs(eps / 8.9e-21 - 1) * 100:.2f}% off)")


def test_criterion_2_position_width(cfg, rb87, report):
    w10 = mw.select(_pulse(cfg, 0.0, TAU), cfg).position_width
    w10_lf = mw.position_width_low_field(_pulse(cfg, 0.0, TAU), rb87, cfg.eta)
    w5 = mw.select(_pulse(cfg, 0.0, TAU / 2), cfg).position_width
    ok = (
        abs(w10 - 19e-6) < 0.5e-6
        and abs(w10_lf / w10 - 1.0) < 0.01
        and abs(w5 - 38e-6) < 1e-6
    )
    report(
        "C2 position width", ok,
        f"10us: {w10 * 1e6:.3f} um (low-field form {w10_lf * 1e6:.3f} um, "
        f"{abs(w10_lf / w10 - 1) * 100:.2f}% apart), 5us: {w5 * 1e6:.3f} um",
    )


def test_criterion_3_velocity_width(cfg, report):
    w10 = mw.select(_pulse(cfg, 0.0, TAU), cfg).position_width
    w5 = mw.select(_pulse(cfg, 0.0, TAU / 2), cfg).position_width
    v10 = mw.velocity_width(w10, DELTA_T)
    v5 = mw.velocity_width(w5, DELTA_T)
    ok = (
        v10 == 2.0 * w10 / DELTA_T  # the formula, bit for bit
        and v5 == 2.0 * w5 / DELTA_T
        and abs(v10 / 1.36e-3 - 1.0) < 0.02
        and abs(v5 / 2.7e-3 - 1.0) < 0.02
    )
    report("C3 velocity width", ok,
            f"10us: {v10 * 1e3:.4f} mm/s, 5us: {v5 * 1e3:.4f} mm/s")


def test_criterion_4_wavepacket_spreading(rb87, report):
    w = mw.spread_width(DZ0, DELTA_T, rb87)
    ok = abs(w - 4.5e-6) < 0.1e-6
    report("C4 wavepacket spreading", ok,
            f"3 um grows to {w * 1e6:.4f} um in 28 ms (want 4.5 +/- 0.1)")


def test_criterion_5_transition_probabilities(cfg, rb87, report):
    dz_late = mw.spread_width(DZ0, DELTA_T, rb87)
    p1_10 = _packet_probability(cfg, 0.0, TAU, DZ0)
    p2_10 = _packet_probability(cfg, Z_SECOND, TAU, dz_late)
    p1_5 = _packet_probability(cfg, 0.0, TAU / 2, DZ0)
    p2_5 = _packet_probability(cfg, Z_SECOND, TAU / 2, dz_late)
    ok = (
        abs(p1_10 - 0.91) < 0.02
        and abs(p2_10 - 0.82) < 0.02
        and abs(p1_5 - 0.98) < 0.01
        and abs(p2_5 - 0.95) < 0.01
    )
    report(
        "C5 averaged flip probabilities", ok,
        f"10us: {p1_10:.4f}/{p2_10:.4f} (want 0.91/0.82), "
        f"5us: {p1_5:.4f}/{p2_5:.4f} (want 0.98/0.95)",
    )


def test_criterion_6_trajectory_apex(cfg, rb87, report):
    g = mw.g_effective(rb87, cfg.eta, Level.UPPER, 1)
    state = mw.WavepacketState.minimum_uncertainty(
        z=0.0, v=g * DELTA_T, dz=DZ0, level=Level.UPPER, sigma=1
    )
    z_apex, v_apex = mw.evolve_expected(state, DELTA_T, cfg)
    ok = abs(z_apex / 1e-2 - 1.0) < 0.02 and v_apex == 0.0
    report(
        "C6 trajectory apex", ok,
        f"launch {g * DELTA_T:.4f} m/s reaches {z_apex * 1e2:.4f} cm with "
        f"v = {v_apex} at 28 ms (want 1.0 cm +/- 2%, v = 0)",
    )


def test_criterion_7_selection_cell(cfg, pulse_first, pulse_second, report):
    cell = mw.selection_cell(
        mw.select(pulse_first, cfg), mw.select(pulse_second, cfg), cfg
    )
    dv10 = mw.velocity_width(mw.select(pulse_first, cfg).position_width, DELTA_T)
    v, density = mw.marginal_velocity(cell, resolution=4097)
    lit = v[density > 0]
    support = lit.max() - lit.min()
    ok = (
        cell.v_center < 0.0
        and abs(cell.v_center) < 5.0 * dv10
        and -7e-3 < cell.v_center < -3e-3
        and abs(support / dv10 - 1.0) < 0.01
    )
    report(
        "C7 selection cell", ok,
        f"v_f = {cell.v_center * 1e3:.4f} mm/s (|v_f| < 5 dv = "
        f"{5 * dv10 * 1e3:.2f} mm/s), marginal support {support * 1e3:.4f} "
        f"vs 2dz/dt {dv10 * 1e3:.4f} mm/s",
    )


def test_criterion_8_stability_budget(cfg, pulse_first, report):
    budget = mw.stability_budget(mw.select(pulse_first, cfg), cfg, displacement=1e-2)
    halved = mw.stability_budget(mw.select(_pulse(cfg, 0.0, TAU / 2), cfg), cfg,
                                 displacement=1e-2)
    ok = (
        0.5e-3 <= budget.gradient_fraction <= 2e-3
        and halved.bias_tolerance_T == 2.0 * budget.bias_tolerance_T
        and halved.gradient_fraction == 2.0 * budget.gradient_fraction
        and abs(budget.bias_tolerance_G / 0.0238 - 1.0) < 0.01
    )
    report(
        "C8 stability budget", ok,
        f"gradient fraction {budget.gradient_fraction:.3e} in [0.5e-3, 2e-3], "
        f"bias tolerance {budget.bias_tolerance_G * 1e3:.2f} mG, "
        f"halving tau doubles both exactly: "
        f"{halved.gradient_fraction == 2 * budget.gradient_fraction}",
    )


def test_criterion_9_numerical_properties(
    cfg, rb87, pulse_first, pulse_second, report, monkeypatch
):
    checks = []

    # analytic slope vs central differences at 1000 random positions
    rng = np.random.default_rng(SEED)
    z = rng.uniform(-2e-2, 2e-2, 1000)
    h = 1e-9
    branch = mw.StretchedBranch(1)
    exact = mw.d_transition_dz(branch, z, cfg)
    fd = (
        mw.transition_angular_frequency(branch, z + h, cfg)
        - mw.transition_angular_frequency(branch, z - h, cfg)
    ) / (2.0 * h)
    fd_rel = float(np.max(np.abs(fd / exact - 1.0)))
    checks.append(("derivatives", fd_rel < 1e-6, f"max rel {fd_rel:.2e}"))

    # the packet-average rule vs a brute-force midpoint Riemann sum
    dz = mw.spread_width(DZ0, DELTA_T, rb87)
    state = mw.WavepacketState.minimum_uncertainty(
        z=Z_SECOND, v=0.0, dz=dz, level=Level.LOWER, sigma=1
    )
    rule = mw.transition_probability(state, pulse_second, cfg)
    n = 1_000_000
    lo, hi = Z_SECOND - 8.0 * dz, Z_SECOND + 8.0 * dz
    mid = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    gauss = np.exp(-((mid - Z_SECOND) ** 2) / (2.0 * dz * dz)) / (
        dz * np.sqrt(2.0 * np.pi)
    )
    riemann = float(
        np.sum(gauss * mw.point_probability(mid, pulse_second, cfg))
        * (hi - lo) / n
    )
    quad_rel = abs(rule / riemann - 1.0)
    checks.append(("quadrature vs Riemann", quad_rel < 1e-8,
                   f"rel {quad_rel:.2e}"))

    # the block size of the packet-average rule must not change a single byte
    spec = mw.EnsembleSpec(
        n=20000, z_mean=0.0, z_rms=1e-3, v_mean=0.7192, v_rms=1e-2,
        dz0=DZ0, seed=SEED,
    )
    runs = []
    for block in (8192, 1024, 7):
        monkeypatch.setattr(probability, "_BLOCK", block)
        runs.append(mw.run_monte_carlo(spec, pulse_first, pulse_second, cfg))
    monkeypatch.undo()
    identical = all(
        r.z0.tobytes() == runs[0].z0.tobytes()
        and r.survived_both.tobytes() == runs[0].survived_both.tobytes()
        and r.z_final.tobytes() == runs[0].z_final.tobytes()
        and r.v_final.tobytes() == runs[0].v_final.tobytes()
        for r in runs[1:]
    )
    checks.append(("8192/1024/7-row block determinism", identical,
                   "byte-identical"))

    # survivors of a wide cloud map out the analytic velocity cell
    cell = mw.selection_cell(
        mw.select(pulse_first, cfg), mw.select(pulse_second, cfg), cfg
    )
    g = mw.g_effective(rb87, cfg.eta, Level.UPPER, 1)
    wide = mw.EnsembleSpec(
        n=100_000, z_mean=0.0, z_rms=1e-4,
        v_mean=cell.v_center + g * DELTA_T, v_rms=3e-3,
        dz0=DZ0, seed=SEED, decision_mode="band",
    )
    result = mw.run_monte_carlo(wide, pulse_first, pulse_second, cfg)
    kept_v = result.v_final[result.survived_both]
    ratio = (kept_v.max() - kept_v.min()) / cell.velocity_support
    checks.append((
        "empirical velocity width",
        abs(ratio - 1.0) < 0.20,
        f"{result.n_survived_both} survivors span {ratio:.3f} of the cell",
    ))

    escapes = int(np.count_nonzero(
        ~cell.dilated(1.0 + 1e-9).contains(result.z_final[result.survived_both],
                                           kept_v)
    ))
    checks.append(("cell confinement", escapes == 0,
                   f"{escapes} escapes / {wide.n}"))

    ok = all(c[1] for c in checks)
    report("C9 numerical properties", ok,
            "; ".join(f"{name} {'ok' if good else 'FAIL'} ({txt})"
                      for name, good, txt in checks))


def test_criterion_10_eigenvalue_oracle(report):
    from test_breit_rabi import _oracle_energies

    worst = 0.0
    for name in mw.available_species():
        species = mw.get_species(name)
        energy_unit = CONST.hbar * species.delta_W
        for sigma in (1, -1):
            lower_b = mw.StretchedBranch(sigma, Level.LOWER)
            upper_b = mw.StretchedBranch(sigma, Level.UPPER)
            for kz in np.linspace(-1.0, 1.0, 101):
                field_B = kz * energy_unit / species.g_sum
                want_lo, want_up = _oracle_energies(field_B, species, sigma)
                got_lo = mw.eigenvalue(lower_b, kz, species)
                got_up = mw.eigenvalue(upper_b, kz, species)
                worst = max(
                    worst,
                    abs(got_lo - want_lo) / energy_unit,
                    abs(got_up - want_up) / energy_unit,
                )
    ok = worst < 1e-12
    report(
        "C10 eigenvalue oracle", ok,
        f"max |closed form - 2x2 diagonalization| = {worst:.2e} hbar*dW "
        f"over 4 species x 2 branches x kz in [-1, 1]",
    )
