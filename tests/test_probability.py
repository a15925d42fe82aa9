"""Packet-averaged flip probabilities against a brute-force Riemann oracle.

The oracle integrates the Gaussian-weighted point probability with a
plain midpoint rule at 10^6 slices, sharing no code with the
evenly spaced 201-node rule under test.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mwselect as mw
from mwselect import config as cf
from mwselect import phase_space, probability
from mwselect.breit_rabi import Level

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "rb87_10us.yaml"
DELTA_T = 28e-3
DZ_LATE = 4.541899821138003e-06  # 3 um after 28 ms of free spreading


def _riemann_average(pulse, cfg, center, width, half_span, slices=1_000_000):
    edges = np.linspace(center - half_span, center + half_span, slices + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    gauss = np.exp(-0.5 * ((mids - center) / width) ** 2) / (
        math.sqrt(2.0 * math.pi) * width
    )
    values = mw.point_probability(mids, pulse, cfg)
    step = 2.0 * half_span / slices
    return float(np.sum(gauss * values) * step)


def _packet(center, width):
    return mw.WavepacketState.minimum_uncertainty(center, 0.0, width, Level.LOWER, 1)


def test_transition_probability_matches_riemann_oracle(cfg, pulse_first):
    for width in (3e-6, DZ_LATE):
        want = _riemann_average(pulse_first, cfg, 0.0, width, 8.0 * width)
        got = mw.transition_probability(_packet(0.0, width), pulse_first, cfg)
        assert got == pytest.approx(want, abs=1e-10)


def test_quadrature_settings_window_floor():
    with pytest.raises(ValueError):
        mw.QuadratureSettings(window_sigmas=4.0)


def test_point_probability_on_resonance_is_unity(cfg, pulse_first):
    assert float(mw.point_probability(0.0, pulse_first, cfg)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_point_probability_at_half_width_edge(cfg, pulse_first):
    # at the slice edge the detuning equals the resonant Rabi frequency:
    # the envelope is 1/2 and the flip probability is sin^2(pi/sqrt(2))/2
    edge = 0.5 * mw.select(pulse_first, cfg).position_width
    want = math.sin(math.pi * math.sqrt(2.0) / 2.0) ** 2 / 2.0
    got = float(mw.point_probability(edge, pulse_first, cfg))
    assert got == pytest.approx(want, rel=1e-4)  # slope curvature over 9.5 um
    assert want == pytest.approx(0.31656, rel=1e-4)


def test_point_probability_matches_universal_profile(cfg, pulse_first):
    # the universal pulse-shape curve of r = detuning/(2*omega0)
    z = np.linspace(-60e-6, 60e-6, 41)
    r = mw.detuning(z, pulse_first, cfg) / (2.0 * pulse_first.coupling_omega0)
    s = 1.0 + r * r
    np.testing.assert_allclose(
        mw.point_probability(z, pulse_first, cfg),
        np.sin(0.5 * math.pi * np.sqrt(s)) ** 2 / s,
        rtol=1e-12,
    )


def _probability_at_ratio(cfg, pulse, r):
    """Flip probability at the pulse's resonance after detuning it by r*2*omega0."""
    shifted = dataclasses.replace(
        pulse, omega_A=pulse.omega_A - r * 2.0 * pulse.coupling_omega0
    )
    return float(mw.point_probability(0.0, shifted, cfg))


def test_profile_reference_points(cfg, pulse_first):
    assert _probability_at_ratio(cfg, pulse_first, 0.0) == 1.0
    assert _probability_at_ratio(cfg, pulse_first, 1.0) == pytest.approx(
        0.31656, rel=1e-4
    )
    # first zero of the flip probability at r = sqrt(3) (pulse area 2*pi)
    assert _probability_at_ratio(cfg, pulse_first, math.sqrt(3.0)) == pytest.approx(
        0.0, abs=1e-15
    )


def _moving_flip(z_center, v, pulse, cfg, steps=250):
    """Flip probability of an atom at z_center + v*t, t in [-tau/2, tau/2].

    Integrates the two-level equation, Hamiltonian (detuning*sz +
    2*omega0*sx)/2, by exact 2x2 steps at the detuning of each step's
    midpoint; z_center and v broadcast.
    """
    w0, dt = pulse.coupling_omega0, pulse.tau / steps
    up = np.ones(np.broadcast(z_center, v).shape, dtype=complex)
    down = np.zeros_like(up)
    for t in (np.arange(steps) + 0.5) * dt - 0.5 * pulse.tau:
        d = mw.detuning(z_center + v * t, pulse, cfg)
        wr = np.sqrt(d * d + 4.0 * w0 * w0)
        c, s = np.cos(0.5 * wr * dt), np.sin(0.5 * wr * dt) / wr
        up, down = (
            (c - 1j * s * d) * up - 2j * s * w0 * down,
            (c + 1j * s * d) * down - 2j * s * w0 * up,
        )
    return np.abs(down) ** 2


@pytest.mark.parametrize("name", ["rb87_10us.yaml", "rb87_5us.yaml"])
def test_frozen_atom_model_holds_to_second_order_in_the_sweep(name):
    # A moving atom sees the detuning sweep by slope*v*tau over the pulse;
    # the frozen model (point_probability at the atom's position at the
    # pulse centre) is off by 0.015-0.016*r^2 at r = |slope|*v*tau/(2*omega0),
    # r = 0.76 for the cloud's mean speed at the 10 us pulse 1.  A packet
    # average is a weighted mean with weights summing to at most 1, so it is
    # off by no more than this point gap.
    run = cf.load_config(CONFIG.with_name(name))
    fcfg = cf.to_field_config(run)
    speeds = np.array([0.0, 0.1, 0.3, 0.72, 1.0, 2.0, -0.72, -2.0])[:, None]
    for pulse in cf.to_pulses(run, fcfg):
        sel = mw.select(pulse, fcfg)
        z = sel.z_center + np.linspace(-4.0, 4.0, 161) * sel.position_width
        frozen = mw.point_probability(z, pulse, fcfg)
        gap = np.max(np.abs(_moving_flip(z, speeds, pulse, fcfg) - frozen), axis=1)
        r = np.abs(sel.transition_slope * speeds[1:, 0]) * pulse.tau / (
            2.0 * pulse.coupling_omega0
        )
        assert gap[0] < 1e-10
        assert np.all((0.01 * r**2 <= gap[1:]) & (gap[1:] <= 0.02 * r**2)), gap[1:] / r**2


def test_mirror_branch_symmetry(cfg, rb87, pulse_first):
    minus_branch = mw.StretchedBranch(sigma=-1)
    pulse_minus = mw.PulseSpec.resonant_at(
        0.0, cfg, t0=0.0, tau=pulse_first.tau, branch=minus_branch
    )
    z = np.linspace(-40e-6, 40e-6, 17)
    plus = mw.point_probability(z, pulse_first, cfg)
    minus = mw.point_probability(-z, pulse_minus, cfg)
    np.testing.assert_array_equal(plus, minus)


def test_frozen_benchmark_probabilities(cfg, branch):
    cases = [
        (10e-6, 3e-6, 0.9109647),
        (10e-6, DZ_LATE, 0.8207556),
        (5e-6, 3e-6, 0.9758500),
        (5e-6, DZ_LATE, 0.9465876),
    ]
    for tau, width, expected in cases:
        pulse = mw.PulseSpec.resonant_at(0.0, cfg, t0=0.0, tau=tau, branch=branch)
        got = mw.transition_probability(_packet(0.0, width), pulse, cfg)
        assert got == pytest.approx(expected, abs=2e-6)


def test_probability_decreases_with_packet_width(cfg, pulse_first):
    widths = [1e-6, 2e-6, 4e-6, 8e-6, 16e-6]
    values = [
        mw.transition_probability(_packet(0.0, w), pulse_first, cfg) for w in widths
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_probability_decreases_off_center(cfg, pulse_first):
    on = mw.transition_probability(_packet(0.0, 3e-6), pulse_first, cfg)
    off = mw.transition_probability(_packet(12e-6, 3e-6), pulse_first, cfg)
    assert off < on


def test_probability_requires_matching_sigma(cfg, pulse_first):
    packet = mw.WavepacketState.minimum_uncertainty(0.0, 0.0, 3e-6, Level.LOWER, -1)
    with pytest.raises(mw.LevelMismatchError):
        mw.transition_probability(packet, pulse_first, cfg)


def test_detail_returns_quadrature_info(cfg, pulse_first):
    packet = _packet(0.0, 3e-6)
    value, error = mw.transition_probability(packet, pulse_first, cfg, detail=True)
    assert value == mw.transition_probability(packet, pulse_first, cfg)
    assert 0.0 <= error < 1e-10
    # the estimate is the gap to the 101-node rule on the even nodes, which
    # resolves less
    rule = probability._packet_rule(3e-6)
    (coarse,) = np.clip(probability._rule_sum(
        np.array([0.0]), rule.offsets[::2], 2.0 * rule.factors[::2], pulse_first, cfg
    ), 0.0, 1.0)
    assert error == abs(value - float(coarse))


def test_packet_rule_is_cached_and_read_only():
    """One rule per (dz, window); callers share its arrays, so none may write them."""
    rule = probability._packet_rule(3e-6, 8.0)
    assert probability._packet_rule(3e-6) is rule
    assert probability._packet_rule(3e-6, window_sigmas=8) is rule
    offsets, factors, half, step = rule.offsets, rule.factors, rule.half, rule.step
    assert half == 8.0 * 3e-6 and rule.weight == float(np.sum(factors))
    # evenly spaced nodes over the window
    assert offsets.size == probability.RULE_ORDER and step == 2.0 * half / 200
    assert offsets[100] == 0.0 and np.allclose(offsets, step * np.arange(-100, 101))
    # the estimate's even nodes, each of two cells, are the 101-node rule
    coarse = 2.0 * half / 100
    assert np.array_equal(offsets[::2], coarse * np.arange(-50, 51))
    density = np.exp(-0.5 * (offsets[::2] / 3e-6) ** 2) / (math.sqrt(2.0 * math.pi) * 3e-6)
    assert np.array_equal(2.0 * factors[::2], density * coarse)
    for array in (offsets, factors):
        with pytest.raises(ValueError):
            array[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        rule.step = 1.0


def test_window_sigmas_sets_the_window(cfg, pulse_first):
    # 15 um off resonance, the 5.5-width tail on the resonant side flips
    # the rule sums the nodes' cells of width h, so it spans +/-(5.5 widths + h/2)
    packet = _packet(15e-6, 3e-6)
    narrow = mw.transition_probability(
        packet, pulse_first, cfg, settings=mw.QuadratureSettings(window_sigmas=5.5)
    )
    h = probability._packet_rule(3e-6, 5.5).step
    want = _riemann_average(pulse_first, cfg, 15e-6, 3e-6, 5.5 * 3e-6 + 0.5 * h)
    assert narrow == pytest.approx(want, abs=1e-10)
    assert narrow < mw.transition_probability(packet, pulse_first, cfg) - 1e-8


def test_batch_matches_single_packet(cfg, pulse_first):
    centers = np.array([-2e-5, -5e-6, 0.0, 5e-6, 2e-5])
    batch = mw.averaged_probability_batch(centers, 3e-6, pulse_first, cfg)
    for center, got in zip(centers, batch):
        # one rule: a single packet is a one-row batch, to the bit
        assert got == mw.transition_probability(_packet(center, 3e-6), pulse_first, cfg)


def _benchmark_cloud_atoms(overrides):
    """Per pulse: (packet centres of the 4 atoms nearest its resonance, width)."""
    run = cf.load_config(CONFIG, overrides)
    fcfg = cf.to_field_config(run)
    pulses = cf.to_pulses(run, fcfg)
    spec = cf.to_ensemble_spec(run)
    z0, v0 = phase_space._draws(spec)[:2]
    g = mw.g_effective(fcfg.species, fcfg.eta, Level.UPPER, spec.sigma)
    dt = run.effective_delta_t()
    positions = (z0, z0 + v0 * dt - 0.5 * g * dt * dt)
    widths = (spec.dz0, mw.spread_width(spec.dz0, dt, fcfg.species))
    out = []
    for pulse, pos, dz in zip(pulses, positions, widths):
        z_res = mw.resonant_position(pulse.omega_A, pulse.branch, fcfg)
        out.append((pulse, pos[np.argsort(np.abs(pos - z_res))[:4]], dz))
    return fcfg, out


@pytest.mark.parametrize("overrides", [
    [],  # the paper's thermal cloud
    ["ensemble.z_rms=20 um", "ensemble.v_rms=2 mm/s"],  # slice-matched cloud
], ids=["thermal", "matched"])
def test_batch_matches_riemann_on_benchmark_clouds(overrides):
    fcfg, picks = _benchmark_cloud_atoms(overrides)
    for pulse, centers, dz in picks:
        batch = mw.averaged_probability_batch(centers, dz, pulse, fcfg)
        for center, got in zip(centers, batch):
            want = _riemann_average(pulse, fcfg, center, dz, 8.0 * dz)
            assert got == pytest.approx(want, abs=1e-10)


def test_batch_is_partition_invariant(cfg, pulse_first):
    centers = np.linspace(-3e-5, 3e-5, 257)
    whole = mw.averaged_probability_batch(centers, 3e-6, pulse_first, cfg)
    parts = np.concatenate(
        [
            mw.averaged_probability_batch(chunk, 3e-6, pulse_first, cfg)
            for chunk in np.array_split(centers, 7)
        ]
    )
    np.testing.assert_array_equal(whole, parts)


def test_batch_rejects_bad_width(cfg, pulse_first):
    with pytest.raises(ValueError):
        mw.averaged_probability_batch(np.array([0.0]), 0.0, pulse_first, cfg)


def test_probability_clamped_to_unit_interval(cfg, pulse_first):
    batch = mw.averaged_probability_batch(
        np.linspace(-1e-4, 1e-4, 101), 1e-7, pulse_first, cfg
    )
    assert np.all(batch >= 0.0)
    assert np.all(batch <= 1.0)


def _rule_without_check(centers, dz, pulse, cfg):
    """The batch rule's sum, bypassing its wide-packet check."""
    rule = probability._packet_rule(dz)
    vals = mw.point_probability(centers[:, None] + rule.offsets[None, :], pulse, cfg)
    return np.sum(vals * rule.factors[None, :], axis=1)


def _dz_at_phase_per_node(ratio, pulse, cfg, order=201):
    """Packet width at which the check sees `ratio` rad per node at z = 0."""
    slope = abs(float(mw.d_transition_dz(pulse.branch, 0.0, cfg)))
    return ratio * order / (slope * 8.0 * pulse.tau)


def test_batch_is_accurate_up_to_its_phase_limit(cfg, pulse_first):
    centers = np.array([0.0, 5e-6, 2e-5])
    limit = probability._MAX_PHASE_PER_NODE
    for dz in (100e-6, _dz_at_phase_per_node(0.98 * limit, pulse_first, cfg)):
        batch = mw.averaged_probability_batch(centers, dz, pulse_first, cfg)
        for center, got in zip(centers, batch):
            want = _riemann_average(pulse_first, cfg, center, dz, 8.0 * dz)
            assert got == pytest.approx(want, abs=1e-10)


def _table_against_riemann(lo, hi, dz, pulse, cfg):
    """Largest gap of the table to the oracle at its ends and middle, and its bound.

    The table is the rule at its grid, so it is charged the rule's error
    and the Gaussian mass outside the window, as the rule's tolerance
    charges it.
    """
    table = probability.averaged_probability_table(lo, hi, dz, pulse, cfg)
    step = probability._packet_rule(dz).step
    assert lo + (table.size - 2) * step < hi <= lo + (table.size - 1) * step
    gap = max(
        abs(table[i] - _riemann_average(pulse, cfg, lo + i * step, dz, 8.0 * dz))
        for i in (0, table.size // 2, table.size - 1)
    )
    return gap, probability._RULE_ERROR + math.erfc(8.0 / math.sqrt(2.0))


@pytest.mark.parametrize("overrides", [
    [],
    ["ensemble.z_rms=20 um", "ensemble.v_rms=2 mm/s"],
], ids=["thermal", "matched"])
def test_table_matches_riemann_on_benchmark_clouds(overrides):
    """The convolution table within the rule's charge."""
    fcfg, picks = _benchmark_cloud_atoms(overrides)
    for pulse, centers, dz in picks:
        gap, charged = _table_against_riemann(
            centers.min(), centers.max(), dz, pulse, fcfg
        )
        assert gap <= charged < 1.1e-11


@pytest.mark.parametrize("window", [5.0, 8.0, 40.0])
def test_table_is_the_rule_on_its_grid(window):
    """The table's taps are the rule's factors on the rule's node lattice.

    On both benchmark pulses, at the largest packet width up to the
    pulse's whose node spacing is a power of two, so that the grid and
    every node of every grid center are exact floats and the table and
    the batch evaluate the point probability at the same positions: over
    7 widths either side of the atoms nearest resonance, each grid point
    is the batch value at its center up to summation rounding, and the
    linear interpolant at the midpoints between grid points is within the
    rule's tolerance.
    """
    fcfg, picks = _benchmark_cloud_atoms([])
    for pulse, centers, width in picks:
        step = 2.0 ** math.floor(math.log2(window * width / 100.0))
        dz = 100.0 / window * step
        rule = probability._packet_rule(dz, window)
        assert rule.step == step
        lo = math.floor(centers.min() / step - 7.0 * dz / step) * step
        hi = centers.max() + 7.0 * dz
        table = probability.averaged_probability_table(
            lo, hi, dz, pulse, fcfg, window_sigmas=window
        )
        grid = lo + step * np.arange(table.size)
        batch = mw.averaged_probability_batch(grid, dz, pulse, fcfg, window_sigmas=window)
        assert np.max(np.abs(table - batch)) <= 4.0 * np.spacing(1.0)
        mids = grid[:-1] + 0.5 * step
        exact = mw.averaged_probability_batch(mids, dz, pulse, fcfg, window_sigmas=window)
        gap = np.abs(0.5 * (table[:-1] + table[1:]) - exact)
        assert np.max(gap) <= rule.tolerance


def test_table_is_accurate_up_to_the_phase_limit(cfg, pulse_first):
    dz = _dz_at_phase_per_node(0.98 * probability._MAX_PHASE_PER_NODE, pulse_first, cfg)
    assert 100e-6 < dz < 107e-6
    gap, charged = _table_against_riemann(-2e-5, 2e-5, dz, pulse_first, cfg)
    assert gap <= charged < 1.1e-11


def test_table_raises_as_a_batch_over_its_span_would(cfg, pulse_first):
    limit = probability._MAX_PHASE_PER_NODE
    for ratio, raises in ((0.98, False), (1.02, True)):
        dz = _dz_at_phase_per_node(ratio * limit, pulse_first, cfg)
        ends = np.array([-dz, dz])
        calls = (
            lambda: mw.averaged_probability_batch(ends, dz, pulse_first, cfg),
            lambda: probability.averaged_probability_table(
                -dz, dz, dz, pulse_first, cfg
            ),
        )
        for call in calls:
            if raises:
                with pytest.raises(mw.QuadratureError, match="too wide"):
                    call()
            else:
                call()


def test_batch_raises_past_its_phase_limit(cfg, pulse_first):
    centers = np.array([0.0, 5e-6, 2e-5])
    limit = probability._MAX_PHASE_PER_NODE
    for dz in (300e-6, _dz_at_phase_per_node(1.02 * limit, pulse_first, cfg)):
        with pytest.raises(mw.QuadratureError, match="too wide"):
            mw.averaged_probability_batch(centers, dz, pulse_first, cfg)
    # the limit is well inside the evenly spaced rule's reach: the unchecked
    # sum is still within 1e-10 at twice the limit, and aliasing puts it more
    # than 1e-3 off at 2.4 times
    for ratio, within in ((2.0, True), (2.4, False)):
        dz = _dz_at_phase_per_node(ratio * limit, pulse_first, cfg)
        errors = [
            abs(got - _riemann_average(pulse_first, cfg, c, dz, 8.0 * dz))
            for c, got in zip(centers, _rule_without_check(centers, dz, pulse_first, cfg))
        ]
        assert (max(errors) < 1e-10) if within else (max(errors) > 1e-3)


def test_batch_of_no_centers_is_empty(cfg, pulse_first):
    out = mw.averaged_probability_batch(np.array([]), 300e-6, pulse_first, cfg)
    assert out.shape == (0,)


_NA23_2T = mw.FieldConfig(eta=2.0, bias=0.0, species=mw.get_species("Na23"))
_NA23_MINIMUM = -0.6980126  # m, where the sigma=+1 transition turns over


def test_bound_holds_across_the_transition_minimum():
    branch = mw.StretchedBranch(1)
    t_min = float(mw.transition_angular_frequency(branch, _NA23_MINIMUM, _NA23_2T))
    centers = _NA23_MINIMUM + np.linspace(-2e-3, 2e-3, 81)
    for offset in (-3e6, -3e5, 0.0, 3e5, 3e6):  # rad/s from the minimum
        pulse = mw.PulseSpec(t0=0.0, tau=1e-5, omega_A=t_min + offset, branch=branch)
        for dz in (3e-6, 1e-4):
            batch = mw.averaged_probability_batch(centers, dz, pulse, _NA23_2T)
            bound = probability.averaged_probability_bound(
                centers, centers, dz, pulse, _NA23_2T
            )
            assert np.all(batch <= bound)
            if offset <= -3e5:  # below the minimum: no window reaches resonance
                assert np.all(bound < 0.7)


def _bound_cases():
    rb87 = mw.get_species("Rb87")
    return st.sampled_from([
        (mw.FieldConfig(eta=0.25, bias=0.0, species=rb87), 1, 0.0),
        (mw.FieldConfig(eta=0.25, bias=0.0, species=rb87), -1, 1e-2),
        (mw.FieldConfig(eta=-0.25, bias=3e-5, species=rb87), 1, 0.0),
        (mw.FieldConfig(eta=0.1, bias=0.0, species=mw.get_species("Cs133")), 1, 0.2),
        (_NA23_2T, 1, _NA23_MINIMUM),
    ])


@settings(max_examples=150, deadline=None)
@given(
    case=_bound_cases(),
    detuning_widths=st.floats(-30.0, 30.0),
    log_dz=st.floats(-7.0, -4.0),
    tau=st.floats(2e-6, 5e-5),
    spread=st.floats(0.0, 40.0),
)
def test_bound_is_never_below_the_batch(case, detuning_widths, log_dz, tau, spread):
    cfg, sigma, z_ref = case
    branch = mw.StretchedBranch(sigma)
    omega = float(mw.transition_angular_frequency(branch, z_ref, cfg))
    pulse = mw.PulseSpec(
        t0=0.0, tau=tau, omega_A=omega + detuning_widths * math.pi / tau, branch=branch
    )
    dz = 10.0**log_dz
    centers = z_ref + dz * spread * np.linspace(-1.0, 1.0, 41)
    try:
        batch = mw.averaged_probability_batch(centers, dz, pulse, cfg)
    except mw.QuadratureError:
        return  # outside the rule's reach; nothing to bound
    bound = probability.averaged_probability_bound(centers, centers, dz, pulse, cfg)
    assert np.all(batch <= bound)


@settings(max_examples=150, deadline=None)
@example(  # detuning flat to rounding across a bin, at the Na23 minimum
    case=(_NA23_2T, 1, _NA23_MINIMUM), detuning_widths=-1.0, log_dz=-7.0,
    tau=3.524927531590408e-05, layout="tied", spread=0.0, n=2,
)
@given(
    case=_bound_cases(),
    detuning_widths=st.floats(-30.0, 30.0),
    log_dz=st.floats(-7.0, -4.0),
    tau=st.floats(2e-6, 5e-5),
    layout=st.sampled_from(["spread", "one", "tied", "multiple"]),
    spread=st.floats(0.0, 200.0),
    n=st.integers(2, 400),
)
def test_bin_bound_is_never_below_an_atoms_own_bound(
    case, detuning_widths, log_dz, tau, layout, spread, n
):
    """phase_space's per-bin bound against each atom's own, on every layout.

    "one" is a single atom and "tied" n atoms at one position (one bin).
    "multiple" puts n - 1 atoms at a dyadic position and one 2 bins above,
    a span that is exactly 2 bin widths, so the top atom's k equals the
    span over the width.
    """
    cfg, sigma, z_ref = case
    branch = mw.StretchedBranch(sigma)
    omega = float(mw.transition_angular_frequency(branch, z_ref, cfg))
    pulse = mw.PulseSpec(
        t0=0.0, tau=tau, omega_A=omega + detuning_widths * math.pi / tau, branch=branch
    )
    dz = 10.0**log_dz
    if layout == "multiple":
        dz = 2.0 ** round(math.log2(dz))
        z_ref = round(z_ref * 2.0**30) / 2.0**30
        n = 16
    z = {
        "spread": z_ref + dz * spread * np.sin(np.arange(n)),
        "one": np.array([z_ref]),
        "tied": np.full(n, z_ref),
        "multiple": z_ref + dz / 8.0 * np.array([0.0] * 15 + [2.0]),
    }[layout]
    if layout == "multiple":
        w = max(phase_space._BIN_STEP * dz, (z.max() - z.min()) / (z.size / 8))
        assert (z.max() - z.min()) / w == 2.0

    def bound(lo, hi):
        return probability.averaged_probability_bound(lo, hi, dz, pulse, cfg)

    assert np.all(phase_space._bin_bound(z, dz, bound) >= bound(z, z))
