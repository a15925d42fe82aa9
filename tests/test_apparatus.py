import math
import types

import numpy as np
import pytest

import mwselect as mw
from mwselect.constants import CONST


@pytest.fixture(scope="module")
def coils():
    # anti-Helmholtz pair sized for 0.25 T/m at the configured current
    return mw.CoilPair(radius=5e-2, current=5.79233904, half_separation=2.5e-2,
                       turns=100)


def test_field_is_odd_and_zero_at_center(coils):
    z = np.linspace(-4e-2, 4e-2, 41)
    b = mw.on_axis_field(coils, z)
    np.testing.assert_array_equal(b, -mw.on_axis_field(coils, -z))
    assert mw.on_axis_field(coils, 0.0) == 0.0


def test_gradient_matches_finite_difference(coils):
    h = 1e-7
    fd = (mw.on_axis_field(coils, h) - mw.on_axis_field(coils, -h)) / (2 * h)
    assert mw.gradient_at_center(coils) == pytest.approx(fd, rel=1e-6)
    assert mw.gradient_at_center(coils) == pytest.approx(0.25, rel=1e-6)


def test_gradient_closed_form(coils):
    # 3 mu0 N I R^2 d / (R^2 + d^2)^(5/2)
    want = (3 * CONST.mu0 * coils.turns * coils.current * coils.radius**2
            * coils.half_separation
            / (coils.radius**2 + coils.half_separation**2) ** 2.5)
    assert mw.gradient_at_center(coils) == pytest.approx(want, rel=1e-12)


def test_current_for_gradient_frozen(coils):
    amps = mw.current_for_gradient(0.25, radius=5e-2, half_separation=2.5e-2,
                                   turns=100)
    assert amps == pytest.approx(579.23376372 / 100, rel=1e-6)
    rebuilt = mw.CoilPair(5e-2, amps, 2.5e-2, turns=100)
    assert mw.gradient_at_center(rebuilt) == pytest.approx(0.25, rel=1e-12)


def test_max_gradient_geometry():
    assert mw.max_gradient_half_separation(5e-2) == pytest.approx(2.5e-2, rel=1e-12)
    # grid oracle: gradient at fixed R, NI peaks at d = R/2
    seps = np.linspace(0.5e-2, 6e-2, 1101)
    grads = [mw.gradient_at_center(mw.CoilPair(5e-2, 1.0, d, turns=1))
             for d in seps]
    assert seps[int(np.argmax(grads))] == pytest.approx(2.5e-2, abs=1e-4)


def test_linearity_region_bracket(coils):
    boundary = mw.linearity_region(coils, rel_tol=0.01)
    cap = min(coils.radius, coils.half_separation)
    assert 0.19 * cap < boundary < 0.21 * cap

    def deviation(z):
        ideal = mw.gradient_at_center(coils) * z
        return abs(mw.on_axis_field(coils, z) / ideal - 1.0)

    assert deviation(0.9 * boundary) < 0.01
    assert deviation(1.1 * boundary) > 0.01


def test_linearity_region_loose_tolerance_saturates(coils):
    cap = min(coils.radius, coils.half_separation)
    assert mw.linearity_region(coils, rel_tol=10.0) == cap


def test_shifted_zero_folds_bias(rb87):
    eta = 0.25
    bias = 4e-4
    cfg = mw.FieldConfig(eta=eta, bias=bias, species=rb87)
    z0 = mw.shifted_zero(eta, bias)
    assert z0 == pytest.approx(-bias / eta, rel=1e-12)
    branch = mw.StretchedBranch(1)
    # at the shifted zero the total field vanishes, so the transition sits
    # at the zero-field splitting
    omega = mw.transition_angular_frequency(branch, z0, cfg)
    assert omega == pytest.approx(rb87.delta_W, rel=1e-14)
    assert mw.shifted_zero(eta, 0.0) == 0.0
    assert math.copysign(1.0, mw.shifted_zero(eta, 0.0)) == 1.0
    with pytest.raises(mw.ZeroGradientError):
        mw.shifted_zero(0.0, bias)


def test_stability_budget_identities(cfg, pulse_first):
    budget = mw.stability_budget(mw.select(pulse_first, cfg), cfg, displacement=1e-2)
    dz = mw.select(pulse_first, cfg).position_width
    assert budget.bias_tolerance_T == pytest.approx(0.5 * dz * cfg.eta, rel=1e-12)
    assert budget.bias_tolerance_T == pytest.approx(2.3792e-6, rel=1e-3)
    assert budget.bias_tolerance_G == pytest.approx(budget.bias_tolerance_T * 1e4,
                                                    rel=1e-12)
    assert budget.gradient_fraction == pytest.approx(dz / (2 * 1e-2), rel=1e-12)
    assert budget.gradient_fraction == pytest.approx(9.5169e-4, rel=1e-3)
    assert "Rabi" in budget.criterion


def test_stability_budget_scales_with_pulse_length(cfg, rb87):
    short = mw.PulseSpec.resonant_at(0.0, cfg, t0=0.0, tau=5e-6,
                                     branch=mw.StretchedBranch(1))
    long = mw.PulseSpec.resonant_at(0.0, cfg, t0=0.0, tau=10e-6,
                                    branch=mw.StretchedBranch(1))
    b_short = mw.stability_budget(mw.select(short, cfg), cfg, displacement=1e-2)
    b_long = mw.stability_budget(mw.select(long, cfg), cfg, displacement=1e-2)
    assert b_short.bias_tolerance_T == pytest.approx(2 * b_long.bias_tolerance_T,
                                                     rel=1e-12)
    assert b_short.gradient_fraction == pytest.approx(2 * b_long.gradient_fraction,
                                                      rel=1e-12)


def test_stability_budget_rejects_zero_gradient(rb87, pulse_first):
    flat = mw.FieldConfig(eta=0.0, bias=1e-4, species=rb87)
    sel = mw.select(pulse_first, mw.FieldConfig(0.25, 0.0, rb87))
    with pytest.raises(mw.ZeroGradientError):
        mw.stability_budget(sel, flat, displacement=1e-2)
    with pytest.raises(ValueError):
        mw.stability_budget(sel, mw.FieldConfig(0.25, 0.0, rb87), displacement=0.0)


def test_coil_validation():
    with pytest.raises(ValueError):
        mw.CoilPair(radius=0.0, current=1.0, half_separation=1e-2)
    with pytest.raises(ValueError):
        mw.CoilPair(radius=5e-2, current=1.0, half_separation=-1e-2)
    with pytest.raises(ValueError):
        mw.CoilPair(radius=5e-2, current=1.0, half_separation=1e-2, turns=0)
    with pytest.raises(ValueError):
        mw.max_gradient_half_separation(0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(radius=math.nextafter(1e-6, 0.0)),
        dict(radius=math.nextafter(10.0, math.inf)),
        dict(half_separation=math.nextafter(1e-6, 0.0)),
        dict(half_separation=1e200),
        dict(radius=math.nan),
        dict(current=math.nextafter(1e6, math.inf)),
        dict(current=-1e308),
        dict(current=math.nan),
        dict(turns=10**6 + 1),
        dict(turns=10**400),
        dict(current=1e-310),
        dict(current=-math.nextafter(1e-6, 0.0)),
    ],
)
def test_coil_pair_bounds(kwargs):
    base = dict(radius=5e-2, current=1.0, half_separation=2.5e-2, turns=1)
    with pytest.raises(ValueError):
        mw.CoilPair(**{**base, **kwargs})


def test_linearity_region_rejects_an_underflowing_linear_model():
    # eta0 is a subnormal that eta0*z rounds to zero inside the region; a
    # CoilPair rejects the current, so the pair is built around its checks
    geometry = dict(radius=10.0, current=1e-310, half_separation=1e-6, turns=10**6)
    with pytest.raises(ValueError):
        mw.CoilPair(**geometry)
    coils = types.SimpleNamespace(**geometry)
    assert mw.gradient_at_center(coils) != 0.0
    with pytest.raises(mw.ZeroGradientError):
        mw.linearity_region(coils)
