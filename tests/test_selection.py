import dataclasses
import math

import pytest

import mwselect as mw

TAU = 10e-6
DELTA_T = 28e-3


def test_pi_pulse_coupling(pulse_first):
    assert pulse_first.coupling_omega0 == math.pi / (2.0 * TAU)
    assert pulse_first.rabi_at_resonance == math.pi / TAU


def test_resonant_at_matches_transition(cfg, branch, pulse_second):
    omega = mw.transition_angular_frequency(branch, 1e-2, cfg)
    assert pulse_second.omega_A == float(omega)
    assert mw.detuning(1e-2, pulse_second, cfg) == 0.0


def test_position_width_frozen(cfg, pulse_first):
    width = mw.select(pulse_first, cfg).position_width
    assert width == pytest.approx(1.9033813623250295e-05, rel=1e-12)


def test_position_width_is_rabi_over_slope(cfg, pulse_first):
    slope = float(mw.d_transition_dz(pulse_first.branch, 0.0, cfg))
    assert mw.select(pulse_first, cfg).position_width == pytest.approx(
        2.0 * (math.pi / TAU) / slope, rel=1e-14
    )


def test_low_field_width_close_to_exact(cfg, rb87, pulse_first):
    exact = mw.select(pulse_first, cfg).position_width
    approx = mw.position_width_low_field(pulse_first, rb87, cfg.eta)
    assert approx == pytest.approx(1.9052729337137518e-05, rel=1e-12)
    assert abs(approx - exact) / exact < 0.01


def test_halving_tau_doubles_width(cfg, branch):
    slow = mw.PulseSpec.resonant_at(0.0, cfg, t0=0.0, tau=TAU, branch=branch)
    fast = mw.PulseSpec.resonant_at(0.0, cfg, t0=0.0, tau=TAU / 2.0, branch=branch)
    fast_width = mw.select(fast, cfg).position_width
    assert fast_width == 2.0 * mw.select(slow, cfg).position_width


def test_velocity_width_identity():
    assert mw.velocity_width(1.9e-5, DELTA_T) == 2.0 * 1.9e-5 / DELTA_T
    with pytest.raises(ValueError):
        mw.velocity_width(1e-5, 0.0)


def test_velocity_width_frozen(cfg, pulse_first):
    width = mw.select(pulse_first, cfg).position_width
    assert mw.velocity_width(width, DELTA_T) == pytest.approx(
        1.3595581159464496e-3, rel=1e-12
    )


def test_raman_reference_width():
    k_eff = 2.0 * 2.0 * math.pi / 780e-9
    got = mw.raman_velocity_width(k_eff, 1e-3)
    assert got == pytest.approx(780e-9 / (8.0 * math.pi * 1e-3), rel=1e-14)
    assert got == pytest.approx(3.104e-5, rel=1e-3)
    with pytest.raises(ValueError):
        mw.raman_velocity_width(0.0, 1e-3)


def test_selection_widths_much_narrower_than_optical_pair(cfg, pulse_first):
    # the microwave scheme at 28 ms is coarser than a 1 ms optical pair,
    # but reaches um/s-scale classes with no photon recoil
    dv = mw.velocity_width(mw.select(pulse_first, cfg).position_width, DELTA_T)
    assert 1e-4 < dv < 1e-2


def test_validity_diagnostic_frozen(cfg, rb87, pulse_first, pulse_second):
    first = mw.validity_diagnostic(
        pulse_first, cfg, momentum=0.0, width_initial=3e-6, width_at_pulse=3e-6,
        t_pulse=0.0,
    )
    assert first == pytest.approx(0.073087, rel=1e-4)
    dz_late = mw.spread_width(3e-6, DELTA_T, rb87)
    second = mw.validity_diagnostic(
        pulse_second, cfg, momentum=0.0, width_initial=3e-6, width_at_pulse=dz_late,
        t_pulse=DELTA_T,
    )
    assert second == pytest.approx(0.039240, rel=1e-4)
    assert first < 1.0 and second < 1.0  # frozen-motion treatment is valid


def test_validity_diagnostic_grows_with_momentum(cfg, rb87, pulse_first):
    small = mw.validity_diagnostic(pulse_first, cfg, 0.0, 3e-6, 3e-6, 0.0)
    big = mw.validity_diagnostic(
        pulse_first, cfg, rb87.mass * 1e-3, 3e-6, 3e-6, 0.0
    )
    assert big > small


def test_select_bundles_everything(cfg, pulse_second):
    sel = mw.select(pulse_second, cfg)
    assert sel.z_center == pytest.approx(1e-2, abs=1e-9)
    assert sel.pulse is pulse_second
    assert sel.position_width == 2.0 * pulse_second.rabi_at_resonance / abs(
        sel.transition_slope
    )
    assert sel.transition_slope > 0.0


def test_select_takes_no_pulse_gap(cfg, pulse_second):
    # a velocity width needs two pulses; their t0 gap is the only delta_t
    with pytest.raises(TypeError):
        mw.select(pulse_second, cfg, delta_t=DELTA_T)
    with pytest.raises(TypeError):
        mw.select(pulse_second, cfg, DELTA_T)
    assert "velocity_width" not in {
        f.name for f in dataclasses.fields(mw.SelectionResult)
    }


def test_pulse_validation(cfg, branch):
    with pytest.raises(ValueError):
        mw.PulseSpec(t0=0.0, tau=-1e-6, omega_A=1e9, branch=branch)
    for omega in (0.0, -1e9, float("nan")):
        with pytest.raises(ValueError, match="omega_A must be positive"):
            mw.PulseSpec(t0=0.0, tau=1e-6, omega_A=omega, branch=branch)


@pytest.mark.parametrize("gradient", [1e-4, 1e-6, 1e-20])
def test_a_gradient_too_weak_to_select_is_a_domain_error(cfg, branch, gradient):
    """A slice wider than [-1, 1] m, or a resonance on its end, selects nothing.

    At 1e-4 T/m the slice is 4.8 cm wide; at 1e-6 T/m it is 4.76 m, and at
    1e-20 T/m the transition is so flat that the resonance lands on the
    range's end.
    """
    weak = dataclasses.replace(cfg, eta=gradient)
    pulse = mw.PulseSpec.resonant_at(0.0, weak, t0=0.0, tau=TAU, branch=branch)
    if gradient == 1e-4:
        assert mw.select(pulse, weak).position_width == pytest.approx(4.758e-2, rel=1e-3)
        return
    with pytest.raises(mw.PhysicsDomainError, match="too weak to select"):
        mw.select(pulse, weak)


def test_width_requires_gradient(rb87, branch):
    flat = mw.FieldConfig(eta=0.0, bias=0.0, species=rb87)
    pulse = mw.PulseSpec(t0=0.0, tau=TAU, omega_A=rb87.delta_W, branch=branch)
    with pytest.raises(mw.ZeroGradientError):
        mw.select(pulse, flat)
    with pytest.raises(mw.ZeroGradientError):
        mw.position_width_low_field(pulse, rb87, 0.0)
    with pytest.raises(mw.ZeroGradientError):
        mw.validity_diagnostic(pulse, flat, 0.0, 3e-6, 3e-6, 0.0)
