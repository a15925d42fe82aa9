"""Stretched-state energies checked against an independent diagonalization.

The oracle builds the hyperfine + Zeeman Hamiltonian directly in the
|m_I, m_s> product basis.  The stretched pair at sign s lives in the
m_F = s*(I - 1/2) subspace, which is two dimensional:

    |m_I = s*I, m_s = -s/2>   and   |m_I = s*(I-1), m_s = +s/2>

with contact coupling A = hbar*delta_W/(I + 1/2) and an A/4 offset that
puts the zero-field levels at -/+ hbar*delta_W/2.  The lower stretched
state is the lower eigenvalue of that 2x2 block; the upper stretched
state |m_I = s*I, m_s = +s/2> is alone in its m_F subspace, so its
energy is a 1x1 matrix element.  None of the closed forms under test
appear here.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mwselect as mw
from mwselect.breit_rabi import Level
from mwselect.constants import CONST


def _oracle_energies(field_B: float, species, sigma: int):
    """(lower, upper) stretched energies in J at field B, by diagonalization."""
    spin = species.nuclear_spin
    hf = CONST.hbar * species.delta_W / (spin + 0.5)
    ge = species.g_s * CONST.mu_B
    gn = species.g_I * CONST.mu_N

    def zeeman(m_i, m_s):
        return (ge * m_s - gn * m_i) * field_B

    h11 = hf * (sigma * spin) * (-sigma / 2.0) + zeeman(sigma * spin, -sigma / 2.0)
    h22 = hf * (sigma * (spin - 1.0)) * (sigma / 2.0) + zeeman(
        sigma * (spin - 1.0), sigma / 2.0
    )
    h12 = hf * math.sqrt(2.0 * spin) / 2.0
    block = np.array([[h11, h12], [h12, h22]])
    lower = np.linalg.eigvalsh(block)[0] + hf / 4.0
    upper = (
        hf * (sigma * spin) * (sigma / 2.0)
        + zeeman(sigma * spin, sigma / 2.0)
        + hf / 4.0
    )
    return lower, upper


@pytest.mark.parametrize("name", ["Rb87", "Rb85", "Na23", "Cs133"])
@pytest.mark.parametrize("sigma", [1, -1])
def test_eigenvalues_match_diagonalization(name, sigma):
    species = mw.get_species(name)
    energy_unit = CONST.hbar * species.delta_W
    for kz in np.linspace(-1.0, 1.0, 81):
        field_B = kz * energy_unit / species.g_sum
        want_lo, want_up = _oracle_energies(field_B, species, sigma)
        branch = mw.StretchedBranch(sigma)
        got_lo = mw.eigenvalue(branch, Level.LOWER, kz, species)
        got_up = mw.eigenvalue(branch, Level.UPPER, kz, species)
        assert abs(got_lo - want_lo) <= 1e-12 * energy_unit
        assert abs(got_up - want_up) <= 1e-12 * energy_unit


def test_zero_field_levels(rb87):
    half = 0.5 * CONST.hbar * rb87.delta_W
    for sigma in (1, -1):
        lo = mw.eigenvalue(mw.StretchedBranch(sigma), Level.LOWER, 0.0, rb87)
        up = mw.eigenvalue(mw.StretchedBranch(sigma), Level.UPPER, 0.0, rb87)
        assert lo == pytest.approx(-half, rel=1e-15)
        assert up == pytest.approx(half, rel=1e-15)


@pytest.mark.parametrize("name", ["Rb87", "Rb85", "Na23", "Cs133"])
@pytest.mark.parametrize("sigma", [1, -1])
def test_transition_slope_matches_finite_difference(name, sigma):
    cfg = mw.FieldConfig(eta=0.25, bias=0.0, species=mw.get_species(name))
    branch = mw.StretchedBranch(sigma)
    h = 1e-7
    for z in np.linspace(-0.05, 0.05, 201):
        fd = (
            mw.transition_angular_frequency(branch, z + h, cfg)
            - mw.transition_angular_frequency(branch, z - h, cfg)
        ) / (2.0 * h)
        got = mw.d_transition_dz(branch, z, cfg)
        assert got == pytest.approx(fd, rel=1e-6)


@given(kz=st.floats(-3.0, 3.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_branch_symmetry_is_exact(kz):
    species = mw.get_species("Rb87")
    for level in (Level.LOWER, Level.UPPER):
        plus = mw.eigenvalue(mw.StretchedBranch(1), level, kz, species)
        minus = mw.eigenvalue(mw.StretchedBranch(-1), level, -kz, species)
        assert plus == minus  # u = sigma*kz makes this an identity, bit for bit


@given(eta=st.floats(1e-4, 10.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_epsilon_quadruples_when_gradient_doubles(eta):
    species = mw.get_species("Rb87")
    one = mw.epsilon(mw.FieldConfig(eta=eta, bias=0.0, species=species))
    two = mw.epsilon(mw.FieldConfig(eta=2.0 * eta, bias=0.0, species=species))
    assert two == 4.0 * one


def test_kappa_epsilon_frozen_values(cfg):
    assert mw.kappa(cfg) == pytest.approx(1.0256101592965798, rel=1e-12)
    assert mw.epsilon(cfg) == pytest.approx(8.949485947378495e-21, rel=1e-12)


def test_transition_at_zero_field(cfg, branch):
    assert mw.transition_angular_frequency(branch, 0.0, cfg) == cfg.species.delta_W


def test_transition_offset_at_one_centimeter(cfg, branch):
    got = mw.transition_angular_frequency(branch, 1e-2, cfg) - cfg.species.delta_W
    assert got == pytest.approx(330949109.6, rel=1e-6)  # ~ 2*pi * 52.7 MHz


def test_transition_slope_frozen_value(cfg, branch):
    assert mw.d_transition_dz(branch, 0.0, cfg) == pytest.approx(
        33010648478.27, rel=1e-9
    )


def test_bias_folds_into_position_shift(rb87, branch):
    bias = 2e-5  # T
    with_bias = mw.FieldConfig(eta=0.25, bias=bias, species=rb87)
    without = mw.FieldConfig(eta=0.25, bias=0.0, species=rb87)
    for z in (-0.01, 0.0, 0.004):
        a = mw.transition_angular_frequency(branch, z, with_bias)
        b = mw.transition_angular_frequency(branch, z + bias / 0.25, without)
        assert a == pytest.approx(b, rel=1e-12)


def test_resonant_position_round_trip(cfg, branch):
    for z_true in (-0.04, -0.01, -1e-4, 0.0, 3e-6, 0.01, 0.05):
        omega = mw.transition_angular_frequency(branch, z_true, cfg)
        z_back = mw.resonant_position(omega, branch, cfg)
        assert abs(z_back - z_true) <= 1e-9


def test_resonant_position_respects_sigma(cfg):
    omega = mw.transition_angular_frequency(mw.StretchedBranch(1), 0.01, cfg)
    z_minus = mw.resonant_position(omega, mw.StretchedBranch(-1), cfg)
    assert z_minus == pytest.approx(-0.01, abs=1e-9)


def test_resonant_position_requires_gradient(rb87, branch):
    flat = mw.FieldConfig(eta=0.0, bias=0.0, species=rb87)
    with pytest.raises(mw.ZeroGradientError):
        mw.resonant_position(rb87.delta_W, branch, flat)


def test_resonant_position_reports_attainable_range(cfg, branch):
    with pytest.raises(mw.NoBracketError) as err:
        mw.resonant_position(10.0 * cfg.species.delta_W, branch, cfg)
    assert "outside the transition range" in str(err.value)


def _bisect_resonance(omega_A, branch, cfg):
    """Oracle: plain bisection of transition(z) - omega_A on [-1, 1] m to 1e-15 m."""
    za, zb = -1.0, 1.0
    fa = float(mw.transition_angular_frequency(branch, za, cfg)) - omega_A
    while zb - za > 1e-15:
        zm = 0.5 * (za + zb)
        fm = float(mw.transition_angular_frequency(branch, zm, cfg)) - omega_A
        if (fm < 0.0) == (fa < 0.0):
            za, fa = zm, fm
        else:
            zb = zm
    return 0.5 * (za + zb)


@pytest.mark.parametrize("name", ["Rb87", "Rb85", "Na23", "Cs133"])
@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("eta,bias", [(0.25, 0.0), (0.25, 2e-5), (2.0, -1e-4)])
def test_resonant_position_matches_bisection(name, sigma, eta, bias):
    cfg = mw.FieldConfig(eta=eta, bias=bias, species=mw.get_species(name))
    branch = mw.StretchedBranch(sigma)
    ends = mw.transition_angular_frequency(branch, np.array([-1.0, 1.0]), cfg)
    for z_true in np.linspace(-0.9, 0.9, 19):
        omega = float(mw.transition_angular_frequency(branch, z_true, cfg))
        if not min(ends) < omega < max(ends):
            # attained twice (Na23 at 2 T/m has a minimum in range)
            with pytest.raises(mw.NoBracketError):
                mw.resonant_position(omega, branch, cfg)
            continue
        z = mw.resonant_position(omega, branch, cfg)
        assert abs(z - _bisect_resonance(omega, branch, cfg)) <= 1e-12


def test_resonant_position_drops_root_of_squared_equation():
    # with g_I < 0 the squared resonance condition has a second real root
    # the transition never attains; at 50 T/m it lies nearer z = 0
    species = dataclasses.replace(mw.get_species("Rb87"), name="X", g_I=-1.8272317)
    cfg = mw.FieldConfig(eta=50.0, bias=0.0, species=species)
    branch = mw.StretchedBranch(1)
    for z_true in (-0.9, -0.5, 0.3):
        omega = float(mw.transition_angular_frequency(branch, z_true, cfg))
        z = mw.resonant_position(omega, branch, cfg)
        assert abs(z - _bisect_resonance(omega, branch, cfg)) <= 1e-12


@pytest.mark.parametrize("end,factor", [(-1.0, 0.999), (1.0, 1.001)])
def test_resonant_position_rejects_frequencies_outside_range(cfg, branch, end, factor):
    omega = factor * float(mw.transition_angular_frequency(branch, end, cfg))
    with pytest.raises(mw.NoBracketError):
        mw.resonant_position(omega, branch, cfg)


@pytest.mark.parametrize("sigma", [1, -1])
def test_resonance_at_field_zero_is_positive_zero(cfg, sigma):
    z = mw.resonant_position(cfg.species.delta_W, mw.StretchedBranch(sigma), cfg)
    assert z == 0.0 and math.copysign(1.0, z) == 1.0


def test_stretched_branch_validation():
    with pytest.raises(ValueError):
        mw.StretchedBranch(sigma=2)


def test_field_config_rejects_non_finite(rb87):
    with pytest.raises(ValueError):
        mw.FieldConfig(eta=float("nan"), bias=0.0, species=rb87)


def test_field_config_bounds(rb87):
    for eta, bias in ((1e4, 1e3), (-1e4, -1e3)):
        assert mw.FieldConfig(eta=eta, bias=bias, species=rb87).eta == eta
    for eta, bias in ((1.0001e4, 0.0), (0.25, -1.0001e3), (1e300, 0.0), (0.25, 1e300)):
        with pytest.raises(ValueError, match="at most"):
            mw.FieldConfig(eta=eta, bias=bias, species=rb87)
