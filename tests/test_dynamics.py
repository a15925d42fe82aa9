import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mwselect as mw
from mwselect.breit_rabi import Level, eigenvalue
from mwselect.constants import CONST

ETA = 0.25
DELTA_T = 28e-3


def test_minimum_uncertainty_state_saturates_bound():
    st_ = mw.WavepacketState.minimum_uncertainty(0.0, 0.0, 3e-6, Level.LOWER, 1)
    assert st_.dz * st_.dp == pytest.approx(CONST.hbar / 2.0, rel=1e-14)


def test_state_rejects_sub_heisenberg():
    with pytest.raises(ValueError, match="uncertainty"):
        mw.WavepacketState(
            z=0.0, v=0.0, dz=1e-6, dp=1e-31, level=Level.LOWER, sigma=1
        )
    with pytest.raises(ValueError):
        mw.WavepacketState(z=0.0, v=0.0, dz=-1e-6, dp=1e-27, level=Level.LOWER, sigma=1)
    with pytest.raises(ValueError):
        mw.WavepacketState.minimum_uncertainty(0.0, 0.0, 1e-6, Level.LOWER, sigma=0)


def test_g_effective_frozen_values(rb87):
    assert mw.g_effective(rb87, ETA, Level.UPPER, 1) == pytest.approx(
        25.860106426277692, rel=1e-12
    )
    assert mw.g_effective(rb87, ETA, Level.UPPER, -1) == pytest.approx(
        -6.260106426277691, rel=1e-12
    )


def test_g_effective_sigma_symmetry(rb87):
    plus = mw.g_effective(rb87, ETA, Level.UPPER, 1)
    minus = mw.g_effective(rb87, ETA, Level.UPPER, -1)
    assert plus + minus == pytest.approx(2.0 * CONST.g0, rel=1e-12)


def test_g_effective_rejects_lower_level(rb87):
    with pytest.raises(mw.LevelMismatchError):
        mw.g_effective(rb87, ETA, Level.LOWER, 1)


def test_upper_branch_acceleration_matches_g_effective(cfg, rb87):
    # g_eff is gravity plus the upper eigenvalue's slope: -dV/dz/M with
    # dV/dz = dV/dkz * kappa, the slope taken by a central difference
    h = 1e-6
    k = mw.kappa(cfg)
    for sigma in (1, -1):
        branch = mw.StretchedBranch(sigma)
        g = mw.g_effective(rb87, ETA, Level.UPPER, sigma)
        for kz in (-0.5, 0.0, 0.3):
            slope = (
                eigenvalue(branch, Level.UPPER, kz + h, rb87)
                - eigenvalue(branch, Level.UPPER, kz - h, rb87)
            ) / (2.0 * h)
            assert g == pytest.approx(CONST.g0 + slope * k / rb87.mass, rel=1e-9)


def test_apex_scenario(cfg, rb87):
    g = mw.g_effective(rb87, ETA, Level.UPPER, 1)
    launch = g * DELTA_T
    state = mw.WavepacketState.minimum_uncertainty(
        0.0, launch, 3e-6, Level.UPPER, 1
    )
    z_apex, v_apex = mw.evolve_expected(state, DELTA_T, cfg)
    assert v_apex == 0.0  # same product cancels exactly
    assert z_apex == pytest.approx(0.5 * g * DELTA_T**2, rel=1e-14)
    assert z_apex == pytest.approx(1.0137e-2, rel=1e-3)


def test_evolve_expected_rejects_lower_level(cfg):
    state = mw.WavepacketState.minimum_uncertainty(0.0, 0.1, 3e-6, Level.LOWER, 1)
    with pytest.raises(mw.LevelMismatchError):
        mw.evolve_expected(state, DELTA_T, cfg)


def test_energy_conservation_closed_form(cfg, rb87):
    g = mw.g_effective(rb87, ETA, Level.UPPER, 1)
    state = mw.WavepacketState.minimum_uncertainty(0.0, 0.5, 3e-6, Level.UPPER, 1)
    e0 = 0.5 * state.v**2 + g * state.z
    for dt in (1e-3, 1e-2, 5e-2):
        z, v = mw.evolve_expected(state, dt, cfg)
        e1 = 0.5 * v**2 + g * z
        assert abs(e1 - e0) <= 1e-12 * abs(e0)


def test_spread_width_frozen_values(rb87):
    assert mw.spread_width(3e-6, DELTA_T, rb87) == pytest.approx(
        4.541899821138003e-06, rel=1e-12
    )
    assert mw.spread_width(1e-6, DELTA_T, rb87) == pytest.approx(
        1.027908973923668e-05, rel=1e-12
    )
    assert mw.spread_width(3e-6, 0.0, rb87) == 3e-6


@given(t=st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_spread_width_never_below_reference(t):
    rb87 = mw.get_species("Rb87")
    assert mw.spread_width(3e-6, t, rb87) >= 3e-6


def test_spread_width_is_even_in_time(rb87):
    assert mw.spread_width(3e-6, -DELTA_T, rb87) == mw.spread_width(
        3e-6, DELTA_T, rb87
    )
