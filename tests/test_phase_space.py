import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mwselect as mw
from mwselect import config as cf
from mwselect import phase_space, probability
from mwselect.breit_rabi import Level

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "rb87_10us.yaml"

DELTA_T = 28e-3

# (sigma, z1, z2, tau1, tau2, delta_t) of a pulse pair
PAIRS = {
    "shipped": (1, 0.0, 1e-2, 10e-6, 10e-6, DELTA_T),
    "sigma_minus": (-1, 0.0, 1e-2, 10e-6, 10e-6, DELTA_T),
    "second_below_first": (1, 0.0, -1e-2, 10e-6, 10e-6, DELTA_T),
    "unequal_tau": (1, 0.0, 1e-2, 10e-6, 5e-6, DELTA_T),
    "delta_t_1ms": (1, 0.0, 1e-3, 10e-6, 10e-6, 1e-3),
    "delta_t_50ms": (1, 0.0, 1e-2, 10e-6, 10e-6, 50e-3),
}


@pytest.fixture(scope="module")
def cell(cfg, pulse_first, pulse_second):
    return mw.selection_cell(
        mw.select(pulse_first, cfg), mw.select(pulse_second, cfg), cfg
    )


@pytest.fixture(scope="module")
def bands(cell):
    return cell.band_first, cell.band_second


def _pair(cfg, sigma, z1, z2, tau1, tau2, delta_t):
    branch = mw.StretchedBranch(sigma=sigma)
    sels = [
        mw.select(mw.PulseSpec.resonant_at(z, cfg, t0=t0, tau=tau, branch=branch), cfg)
        for z, t0, tau in ((z1, 0.0, tau1), (z2, delta_t, tau2))
    ]
    return (*sels, mw.selection_cell(*sels, cfg))


def _ensemble(**overrides):
    base = dict(
        n=200,
        z_mean=0.0,
        z_rms=1e-4,
        v_mean=0.7192,
        v_rms=3e-3,
        dz0=3e-6,
        seed=20260815,
    )
    base.update(overrides)
    return mw.EnsembleSpec(**base)


def test_band_membership_and_nan(bands):
    b1, _ = bands
    center_v = b1.center / b1.a_v  # v on the band axis at z = 0
    assert bool(b1.contains(0.0, center_v))
    assert not bool(b1.contains(0.0, center_v + 1.0))
    assert not bool(b1.contains(np.nan, np.nan))


def test_first_band_geometry(cfg, rb87, bands, pulse_first):
    b1, b2 = bands
    g = mw.g_effective(rb87, cfg.eta, Level.UPPER, 1)
    assert b1.a_v == -DELTA_T
    assert b1.center == pytest.approx(0.5 * g * DELTA_T**2, rel=1e-12)
    assert b1.half_width == pytest.approx(
        0.5 * mw.select(pulse_first, cfg).position_width, rel=1e-12
    )
    assert b2.a_v == 0.0
    assert b2.center == pytest.approx(1e-2, abs=1e-9)


def test_shipped_cell_velocity(cell, cfg, pulse_first, pulse_second):
    assert cell.v_center == pytest.approx(-4.8986e-3, rel=1e-3)
    # the one delta_t: the bands' a_v gap is the pulses' t0 gap, bit for bit,
    # also where that gap (128 ms - 100 ms) is not the float 28 ms
    assert cell.delta_t == pulse_second.t0 - pulse_first.t0
    p1, p2 = replace(pulse_first, t0=0.1), replace(pulse_second, t0=0.128)
    shifted = mw.selection_cell(mw.select(p1, cfg), mw.select(p2, cfg), cfg)
    assert shifted.delta_t == 0.128 - 0.1 != DELTA_T


@pytest.mark.parametrize("pair", PAIRS.values(), ids=PAIRS.keys())
def test_cell_center_and_widths(cfg, pair):
    sel1, sel2, cell = _pair(cfg, *pair)
    delta_t = pair[-1]
    g = mw.g_effective(cfg.species, cfg.eta, Level.UPPER, sel1.pulse.branch.sigma)
    c1 = sel1.z_center + 0.5 * g * delta_t**2
    w1, w2 = sel1.position_width, sel2.position_width
    assert cell.z_center == pytest.approx(sel2.z_center, rel=1e-12)
    assert cell.v_center == pytest.approx((sel2.z_center - c1) / delta_t, rel=1e-12)
    assert cell.velocity_support == pytest.approx((w1 + w2) / delta_t, rel=1e-12)
    assert cell.area == pytest.approx(w1 * w2 / delta_t, rel=1e-12)


def test_cell_membership_matches_band_intersection(bands, cell):
    b1, b2 = bands
    rng = np.random.default_rng(7)
    z = cell.z_center + 4e-5 * rng.standard_normal(500)
    v = cell.v_center + 2e-3 * rng.standard_normal(500)
    np.testing.assert_array_equal(
        cell.contains(z, v), b1.contains(z, v) & b2.contains(z, v)
    )


@pytest.mark.parametrize("pair", PAIRS.values(), ids=PAIRS.keys())
def test_polygon_is_counterclockwise_and_on_boundaries(cfg, pair):
    # cell_polygon does no shoelace reversal: its corner order must come out
    # counterclockwise for every pulse pair by itself
    cell = _pair(cfg, *pair)[-1]
    poly = mw.cell_polygon(cell)
    assert poly.shape == (4, 2)
    area2 = 0.0
    for i in range(4):
        z0, v0 = poly[i]
        z1, v1 = poly[(i + 1) % 4]
        area2 += z0 * v1 - z1 * v0
    assert area2 > 0.0
    assert 0.5 * area2 == pytest.approx(cell.area, rel=1e-9)
    b1, b2 = cell.band_first, cell.band_second
    for z, v in poly:
        r1 = abs(z + b1.a_v * v - b1.center)
        r2 = abs(z + b2.a_v * v - b2.center)
        assert r1 == pytest.approx(b1.half_width, rel=1e-9)
        assert r2 == pytest.approx(b2.half_width, rel=1e-9)


def test_marginal_is_normalized_triangle(cell):
    v, density = mw.marginal_velocity(cell, resolution=4097)
    assert v[0] == pytest.approx(cell.v_center - 0.5 * cell.velocity_support)
    assert v[-1] == pytest.approx(cell.v_center + 0.5 * cell.velocity_support)
    assert density[0] == pytest.approx(0.0, abs=1e-9)
    assert density[-1] == pytest.approx(0.0, abs=1e-9)
    assert np.trapezoid(density, v) == pytest.approx(1.0, rel=1e-5)
    peak_at = v[np.argmax(density)]
    assert peak_at == pytest.approx(cell.v_center, abs=cell.velocity_support / 100)
    # nearly equal band widths: peak height is essentially 2/support
    assert density.max() == pytest.approx(2.0 / cell.velocity_support, rel=5e-3)


def test_marginal_support_matches_width_sum(cell, cfg, pulse_first, pulse_second):
    w1 = mw.select(pulse_first, cfg).position_width
    w2 = mw.select(pulse_second, cfg).position_width
    v, density = mw.marginal_velocity(cell, resolution=2049)
    measured = v[density > 0.0]
    support = measured.max() - measured.min()
    assert support == pytest.approx((w1 + w2) / DELTA_T, rel=0.01)


def test_band_validation():
    with pytest.raises(ValueError):
        mw.PhaseSpaceBand(0.0, 0.0, 0.0)


def test_selection_cell_needs_a_positive_gap(cfg, pulse_first, pulse_second):
    first, second = mw.select(pulse_first, cfg), mw.select(pulse_second, cfg)
    for pair in ((first, first), (second, first)):
        with pytest.raises(ValueError, match="after the first"):
            mw.selection_cell(*pair, cfg)
    # the cell itself holds the bound, whoever builds it
    second_band = mw.PhaseSpaceBand(0.0, 1e-2, 1e-5)
    for a_v in (0.0, math.nan):
        with pytest.raises(ValueError, match="after the first"):
            mw.SelectionCell(mw.PhaseSpaceBand(a_v, 0.0, 1e-5), second_band)


def test_dilated_cell_scales_widths(cell):
    bigger = cell.dilated(2.0)
    assert bigger.band_first.half_width == 2.0 * cell.band_first.half_width
    assert bigger.velocity_support == pytest.approx(
        2.0 * cell.velocity_support, rel=1e-12
    )
    assert bigger.v_center == pytest.approx(cell.v_center, rel=1e-12)
    assert cell.dilated(1.0) == cell
    with pytest.raises(ValueError):
        cell.dilated(0.0)


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        _ensemble(n=0)
    for dz0 in (0.0, 9.9e-13, 1.01, math.inf, math.nan):
        with pytest.raises(ValueError, match="dz0"):
            _ensemble(dz0=dz0)
    for dz0 in (1e-12, 1.0):
        assert _ensemble(dz0=dz0).dz0 == dz0
    with pytest.raises(ValueError):
        _ensemble(seed=-1)
    with pytest.raises(ValueError):
        _ensemble(decision_mode="maybe")
    with pytest.raises(ValueError):
        _ensemble(sigma=3)
    # the position range, and the speed of light
    for key, top in (("z_mean", 1.0), ("z_rms", 1.0), ("v_mean", 3e8), ("v_rms", 3e8)):
        assert getattr(_ensemble(**{key: top}), key) == top
        with pytest.raises(ValueError, match="at most"):
            _ensemble(**{key: 1.001 * top})
    for key in ("z_mean", "v_mean"):
        with pytest.raises(ValueError, match="at most"):
            _ensemble(**{key: -1e300})


def test_every_64_bit_seed_draws_its_own_atoms():
    """The seed is a uint64 Philox key word, so seeds from 2**63 up neither collide nor warn.

    Below 2**63 the draws are those of the key given as a list of ints.
    """
    for seed in (0, 20260815, 2**63 - 1):
        for key in (0, 1, 2, 4):
            rng = np.random.Generator(np.random.Philox(key=[seed, key]))
            want = rng.random(200) if key > 1 else rng.standard_normal(200)
            got = phase_space._stream(_ensemble(seed=seed, z_mean=0.0, z_rms=1.0,
                                                v_mean=0.0, v_rms=1.0), key)
            np.testing.assert_array_equal(got, want)
    a, b = (phase_space._stream(_ensemble(seed=2**63 + k), 0) for k in (0, 5))
    assert not np.any(a == b)
    # no RuntimeWarning (the suite makes it an error), and not seed 0's key
    top = phase_space._draws(_ensemble(seed=2**64 - 1))
    assert not np.any(top[0] == phase_space._stream(_ensemble(seed=0), 0))


def test_draws_are_a_prefix_of_longer_runs():
    short = phase_space._draws(_ensemble(n=300))
    long = phase_space._draws(_ensemble(n=1000))
    other_seed = phase_space._draws(_ensemble(n=300, seed=8))
    for a, b, c in zip(short, long, other_seed):
        assert a.shape == (300,)
        np.testing.assert_array_equal(a, b[:300])
        assert not np.any(a == c)
    for u in short[2:]:
        assert np.all((0.0 <= u) & (u < 1.0))


def test_monte_carlo_chunk_size_invariance(
    monkeypatch, cfg, pulse_first, pulse_second
):
    # the row blocks of the packet-average rule are the only partition of a run
    spec = _ensemble(n=300)
    runs = []
    for block in (8192, 64, 7):
        monkeypatch.setattr(probability, "_BLOCK", block)
        runs.append(mw.run_monte_carlo(spec, pulse_first, pulse_second, cfg))
    assert runs[0].n_survived_both > 0
    for other in runs[1:]:
        for name in ("survived_both", "z_final", "v_final"):
            assert getattr(other, name).tobytes() == getattr(runs[0], name).tobytes()


def test_monte_carlo_band_mode_survivors_fill_cell(cfg, pulse_first, pulse_second):
    spec = _ensemble(n=20000, decision_mode="band")
    result = mw.run_monte_carlo(spec, pulse_first, pulse_second, cfg)
    assert result.n_survived_both > 50
    inside = result.cell.contains(result.z_final, result.v_final)
    assert int(np.count_nonzero(inside)) == result.n_survived_both
    # non-survivors carry NaN finals
    lost = ~result.survived_both
    assert np.all(np.isnan(result.z_final[lost]))
    assert np.all(np.isnan(result.v_final[lost]))


def test_monte_carlo_final_state_kinematics(cfg, rb87, pulse_first, pulse_second):
    spec = _ensemble(n=2000, decision_mode="band")
    result = mw.run_monte_carlo(spec, pulse_first, pulse_second, cfg)
    g = mw.g_effective(rb87, cfg.eta, Level.UPPER, 1)
    kept = result.survived_both
    z_expected = (
        result.z0[kept] + result.v0[kept] * DELTA_T - 0.5 * g * DELTA_T**2
    )
    np.testing.assert_allclose(result.z_final[kept], z_expected, rtol=1e-12)
    np.testing.assert_allclose(
        result.v_final[kept], result.v0[kept] - g * DELTA_T, rtol=1e-12
    )


def test_monte_carlo_decision_modes_differ(cfg, pulse_first, pulse_second):
    bern = mw.run_monte_carlo(_ensemble(n=3000), pulse_first, pulse_second, cfg)
    band = mw.run_monte_carlo(
        _ensemble(n=3000, decision_mode="band"),
        pulse_first, pulse_second, cfg,
    )
    assert bern.n_survived_first > 0 and band.n_survived_first > 0
    assert not np.array_equal(bern.survived_first, band.survived_first)
    # same cloud in every mode
    np.testing.assert_array_equal(bern.z0, band.z0)
    np.testing.assert_array_equal(bern.v0, band.v0)


def test_monte_carlo_validates_timing_and_sigma(cfg, branch, pulse_first, pulse_second):
    spec = _ensemble(n=10)
    with pytest.raises(ValueError, match="after the first"):
        mw.run_monte_carlo(spec, pulse_second, pulse_first, cfg)
    minus = mw.EnsembleSpec(
        n=10, z_mean=0.0, z_rms=1e-4, v_mean=0.0, v_rms=1e-3, dz0=3e-6,
        seed=1, sigma=-1,
    )
    with pytest.raises(mw.LevelMismatchError):
        mw.run_monte_carlo(minus, pulse_first, pulse_second, cfg)


def test_apex_point_lies_in_both_bands(bands, cell):
    b1, b2 = bands
    # the trajectory through (z_f, v_f) is the one both pulses address
    assert bool(b1.contains(cell.z_center, cell.v_center))
    assert bool(b2.contains(cell.z_center, cell.v_center))
    assert bool(cell.contains(cell.z_center, cell.v_center))


def test_first_band_survivors_trace_slope_one_over_delta_t(
    cfg, rb87, pulse_first, pulse_second
):
    spec = _ensemble(n=20000, v_rms=10e-3, decision_mode="band")
    result = mw.run_monte_carlo(spec, pulse_first, pulse_second, cfg)
    g = mw.g_effective(rb87, cfg.eta, Level.UPPER, 1)
    kept = result.survived_first
    assert int(np.count_nonzero(kept)) > 500
    z2 = result.z0[kept] + result.v0[kept] * DELTA_T - 0.5 * g * DELTA_T**2
    v2 = result.v0[kept] - g * DELTA_T
    # the strip satisfies z = center + delta_t*v + s with |s| <= half width,
    # so regressing z on v recovers delta_t; its (z, v) axis slope is 1/dt
    slope = np.cov(v2, z2)[0, 1] / np.var(v2)
    assert slope == pytest.approx(DELTA_T, rel=0.02)


def _normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def test_band_survival_fraction_matches_analytic_integral(
    cfg, rb87, bands, cell, pulse_first, pulse_second
):
    b1, b2 = bands
    g = mw.g_effective(rb87, cfg.eta, Level.UPPER, 1)
    spec = mw.EnsembleSpec(
        n=30000, z_mean=0.0, z_rms=50e-6,
        v_mean=cell.v_center + g * DELTA_T, v_rms=1.5e-3,
        dz0=3e-6, seed=7777, decision_mode="band",
    )
    result = mw.run_monte_carlo(spec, pulse_first, pulse_second, cfg)

    # oracle: P = int over the first band of phi(z0) * P(v0 in the window
    # that lands the atom inside the second band)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    w1 = 2.0 * b1.half_width
    z0 = nodes * (w1 / 2.0)
    phi = np.exp(-0.5 * (z0 / spec.z_rms) ** 2) / (
        spec.z_rms * math.sqrt(2.0 * math.pi)
    )
    v_hit = (b2.center - z0 + 0.5 * g * DELTA_T**2) / DELTA_T
    v_half = b2.half_width / DELTA_T
    p_v = np.array([
        _normal_cdf((vc + v_half - spec.v_mean) / spec.v_rms)
        - _normal_cdf((vc - v_half - spec.v_mean) / spec.v_rms)
        for vc in v_hit
    ])
    fraction = float(np.sum(weights * phi * p_v) * (w1 / 2.0))

    expected = spec.n * fraction
    assert expected > 300
    assert result.n_survived_both == pytest.approx(expected, rel=0.15)


def test_cloud_inside_both_bands_survives_fully(cfg, rb87, cell):
    g = mw.g_effective(rb87, cfg.eta, Level.UPPER, 1)
    v0 = (cell.z_center + 0.5 * g * DELTA_T**2) / DELTA_T
    spec = mw.EnsembleSpec(
        n=64, z_mean=0.0, z_rms=0.0, v_mean=v0, v_rms=0.0,
        dz0=3e-6, seed=3, decision_mode="band",
    )
    p1 = mw.PulseSpec.resonant_at(0.0, cfg, t0=0.0, tau=1e-5,
                                  branch=mw.StretchedBranch(1))
    p2 = mw.PulseSpec.resonant_at(cell.z_center, cfg, t0=DELTA_T, tau=1e-5,
                                  branch=mw.StretchedBranch(1))
    result = mw.run_monte_carlo(spec, p1, p2, cfg)
    assert result.summary()["fraction_both"] == 1.0


def test_summary_without_survivors_has_the_same_keys(cfg, pulse_first, pulse_second):
    some = mw.run_monte_carlo(_ensemble(n=500, decision_mode="band"),
                              pulse_first, pulse_second, cfg)
    none = mw.run_monte_carlo(_ensemble(n=500, decision_mode="band", z_mean=0.5),
                              pulse_first, pulse_second, cfg)
    assert some.n_survived_both and not none.n_survived_both
    filled, empty = some.summary(), none.summary()
    assert list(filled) == list(empty)
    survivor = [key for key in filled if key.startswith("survivor_")]
    assert len(survivor) == 7
    assert all(isinstance(filled[key], float) and empty[key] is None for key in survivor)


def test_summary_reports_counts(cfg, pulse_first, pulse_second):
    spec = _ensemble(n=500, decision_mode="band")
    result = mw.run_monte_carlo(spec, pulse_first, pulse_second, cfg)
    s = result.summary()
    assert s["n_total"] == 500
    assert s["n_survived_both"] == result.n_survived_both
    assert s["cell_velocity_support_m_s"] == result.cell.velocity_support
    if result.n_survived_both:
        assert s["survivor_v_range_m_s"] <= result.cell.velocity_support * 1.001


def _every_atom_averaged(
    spec, pulse_first, pulse_second, cfg, delta_t, window_sigmas=8.0
):
    """Reference run: every atom through the batch average at both pulses.

    Decides each atom as run_monte_carlo did before the Rabi-envelope
    rejection, the survivor-only second pulse and the probability
    tables: no bound, no pruning, no interpolation.
    Blocks of 4096 rows keep the (rows, 201) arrays small; the batch rule
    is partition-invariant, so blocking cannot change a value.
    """
    z0, v0, u1, u2 = phase_space._draws(spec)
    g = mw.g_effective(cfg.species, cfg.eta, Level.UPPER, spec.sigma)
    z2 = z0 + v0 * delta_t - 0.5 * g * delta_t * delta_t
    v2 = v0 - g * delta_t
    dz2 = mw.spread_width(spec.dz0, delta_t, cfg.species)

    def average(z, dz, pulse):
        return np.concatenate([
            mw.averaged_probability_batch(
                z[i:i + 4096], dz, pulse, cfg, window_sigmas=window_sigmas
            )
            for i in range(0, z.size, 4096)
        ])

    ok1 = u1 < average(z0, spec.dz0, pulse_first)
    ok2 = ok1 & (u2 < average(z2, dz2, pulse_second))
    return ok1, ok2, np.where(ok2, z2, np.nan), np.where(ok2, v2, np.nan)


def _pulse_pair(cfg, sigma, z_first, v_mean, delta_t=DELTA_T, tau=1e-5):
    """Pulse 1 resonant at z_first, pulse 2 where an atom at v_mean lands."""
    branch = mw.StretchedBranch(sigma)
    g = mw.g_effective(cfg.species, cfg.eta, Level.UPPER, sigma)
    z_second = z_first + v_mean * delta_t - 0.5 * g * delta_t * delta_t
    return (
        mw.PulseSpec.resonant_at(z_first, cfg, t0=0.0, tau=tau, branch=branch),
        mw.PulseSpec.resonant_at(z_second, cfg, t0=delta_t, tau=tau, branch=branch),
    )


_THERMAL = dict(z_mean=0.0, z_rms=1e-3, v_mean=0.7192, v_rms=10e-3, dz0=3e-6)
_MATCHED = dict(z_mean=0.0, z_rms=20e-6, v_mean=0.7192, v_rms=2e-3, dz0=3e-6)


def _equivalence_cases():
    rb87 = mw.get_species("Rb87")
    na23 = mw.get_species("Na23")
    headline = mw.FieldConfig(eta=0.25, bias=0.0, species=rb87)
    biased = mw.FieldConfig(eta=0.25, bias=2e-5, species=rb87)
    # Na23 at 2 T/m: the sigma=+1 transition has its minimum at z = -0.698 m
    na_cfg = mw.FieldConfig(eta=2.0, bias=0.0, species=na23)
    dt_short = 1e-3
    return {
        "thermal-a": (headline, 1, 0.0, 20000, 20260815, _THERMAL, DELTA_T),
        "thermal-b": (headline, 1, 0.0, 10000, 11, _THERMAL, DELTA_T),
        "matched-a": (headline, 1, 0.0, 4000, 20260815, _MATCHED, DELTA_T),
        "matched-b": (headline, 1, 0.0, 4000, 12, _MATCHED, DELTA_T),
        "sigma-minus": (headline, -1, 0.0, 4000, 5, _MATCHED, DELTA_T),
        "bias": (biased, 1, 2e-3, 4000, 6, dict(_MATCHED, z_mean=2e-3), DELTA_T),
        "na23-minimum": (
            na_cfg, 1, -0.4, 5000, 7,
            dict(z_mean=-0.55, z_rms=0.1, v_mean=0.0, v_rms=1e-3, dz0=3e-6),
            dt_short,
        ),
        "wide-packet": (headline, 1, 0.0, 4000, 8, dict(_THERMAL, dz0=100e-6), DELTA_T),
    }


@pytest.mark.parametrize("case", sorted(_equivalence_cases()))
def test_monte_carlo_matches_every_atom_reference(case):
    cfg, sigma, z_first, n, seed, cloud, delta_t = _equivalence_cases()[case]
    p1, p2 = _pulse_pair(cfg, sigma, z_first, cloud["v_mean"], delta_t)
    spec = mw.EnsembleSpec(n=n, seed=seed, sigma=sigma, **cloud)
    result = mw.run_monte_carlo(spec, p1, p2, cfg)
    want = _every_atom_averaged(spec, p1, p2, cfg, delta_t)
    assert result.n_survived_both > 0
    names = ("survived_first", "survived_both", "z_final", "v_final")
    for name, ref in zip(names, want):
        assert getattr(result, name).tobytes() == ref.tobytes(), name
    rows1, rows2 = result.quadrature_rows
    assert result.n_survived_first <= rows1 <= n
    assert result.n_survived_both <= rows2 <= result.n_survived_first


def _open_atoms_averaged(spec, pulse_first, pulse_second, cfg, window_sigmas):
    """Reference run after _accept's contract, with no table.

    At each pulse the atoms the Rabi-envelope bound leaves open are
    averaged in one batch call; the others are rejected, as u >= bound
    >= p.  Pulse 2 sees only the pulse-1 survivors, so a packet too
    wide for the rule raises QuadratureError exactly where the run
    must.
    """
    z0, v0, u1, u2 = phase_space._draws(spec)
    delta_t = pulse_second.t0 - pulse_first.t0
    g = mw.g_effective(cfg.species, cfg.eta, Level.UPPER, spec.sigma)
    dz2 = mw.spread_width(spec.dz0, delta_t, cfg.species)

    def decide(u, z, dz, pulse):
        keep = np.zeros(z.size, dtype=bool)
        rows = u < probability.averaged_probability_bound(
            z, z, dz, pulse, cfg, window_sigmas=window_sigmas
        )
        keep[rows] = u[rows] < mw.averaged_probability_batch(
            z[rows], dz, pulse, cfg, window_sigmas=window_sigmas
        )
        return keep

    ok1 = decide(u1, z0, spec.dz0, pulse_first)
    (alive,) = np.nonzero(ok1)
    z2 = z0[alive] + v0[alive] * delta_t - 0.5 * g * delta_t * delta_t
    kept = alive[decide(u2[alive], z2, dz2, pulse_second)]
    ok2 = np.zeros_like(ok1)
    ok2[kept] = True
    z_final = np.full(spec.n, np.nan)
    z_final[kept] = z2[ok2[alive]]
    v_final = np.full(spec.n, np.nan)
    v_final[kept] = v0[kept] - g * delta_t
    return ok1, ok2, z_final, v_final


def _outcome(call):
    """The run's four per-atom arrays as bytes, or None if it raised QuadratureError."""
    try:
        out = call()
    except mw.QuadratureError:
        return None
    if isinstance(out, mw.MonteCarloResult):
        out = (out.survived_first, out.survived_both, out.z_final, out.v_final)
    return tuple(a.tobytes() for a in out)


@st.composite
def _regime_cases(draw):
    """A species, field, pulse pair and cloud, sized in units of the two slices.

    |eta| <= 1 T/m keeps every species' transition monotone on the [-1, 1]
    m position range.  dz0 runs from 1e-3 slice widths to past the rule's
    phase limit near 45/window_sigmas slice widths; a narrow dz0 spreads
    into a wide pulse-2 packet.  The cloud's offset and rms are drawn in
    slice widths at each pulse, and a zero rms ties every atom's position.
    """
    species = mw.get_species(draw(st.sampled_from(mw.available_species())))
    sigma = draw(st.sampled_from([1, -1]))
    eta = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(0.05, 1.0))
    cfg = mw.FieldConfig(eta=eta, bias=draw(st.floats(-1e-4, 1e-4)), species=species)
    tau = draw(st.floats(5e-6, 20e-6))
    window = draw(st.floats(5.0, 40.0))
    z_first = draw(st.floats(-1e-2, 1e-2))
    p1, p2 = _pulse_pair(cfg, sigma, z_first, _THERMAL["v_mean"], tau=tau)
    w1 = mw.select(p1, cfg).position_width
    w2 = mw.select(p2, cfg).position_width
    dz0 = w1 * 10.0 ** draw(st.floats(-3.0, math.log10(1.5 * 45.0 / window)))
    rms = st.one_of(st.floats(-2.0, 2.5).map(lambda e: 10.0**e), st.just(0.0))
    cloud = dict(
        z_mean=z_first + draw(st.floats(-10.0, 10.0)) * w1,
        z_rms=draw(rms) * w1,
        v_mean=_THERMAL["v_mean"] + draw(st.floats(-10.0, 10.0)) * w2 / DELTA_T,
        v_rms=draw(rms) * w2 / DELTA_T,
        dz0=dz0,
    )
    spec = mw.EnsembleSpec(
        n=draw(st.integers(1, 2000)), seed=draw(st.integers(0, 2**32)), sigma=sigma,
        **cloud,
    )
    return spec, p1, p2, cfg, window


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=_regime_cases())
def test_monte_carlo_is_exact_across_the_regime(case):
    """run_monte_carlo against both references, the same bytes or both raising.

    The open-atom reference must agree always; the every-atom reference
    averages pulse 2 over atoms the run never reaches, so it may raise
    where the run does not, and must agree wherever it does not raise.
    """
    spec, p1, p2, cfg, window = case
    got = _outcome(lambda: mw.run_monte_carlo(spec, p1, p2, cfg, window_sigmas=window))
    assert got == _outcome(lambda: _open_atoms_averaged(spec, p1, p2, cfg, window))
    every = _outcome(
        lambda: _every_atom_averaged(spec, p1, p2, cfg, DELTA_T, window_sigmas=window)
    )
    assert every is None or every == got


@pytest.mark.parametrize("mode", [
    dict(),
    dict(decision_mode="band"),
])
def test_every_mode_decides_pulse_two_for_survivors_only(
    mode, cfg, pulse_first, pulse_second
):
    spec = _ensemble(n=4000, **mode)
    result = mw.run_monte_carlo(spec, pulse_first, pulse_second, cfg)
    z0, v0, u1, u2 = phase_space._draws(spec)
    g = mw.g_effective(cfg.species, cfg.eta, Level.UPPER, 1)
    z2 = z0 + v0 * DELTA_T - 0.5 * g * DELTA_T**2
    if spec.decision_mode == "band":
        def flips(u, z, pulse):
            return np.abs(mw.detuning(z, pulse, cfg)) <= 2.0 * pulse.coupling_omega0
    else:
        dz2 = mw.spread_width(spec.dz0, DELTA_T, cfg.species)

        def flips(u, z, pulse):
            dz = spec.dz0 if pulse is pulse_first else dz2
            return u < mw.averaged_probability_batch(z, dz, pulse, cfg)
    ok1 = flips(u1, z0, pulse_first)
    ok2 = ok1 & flips(u2, z2, pulse_second)
    assert result.n_survived_both > 0
    assert result.survived_first.tobytes() == ok1.tobytes()
    assert result.survived_both.tobytes() == ok2.tobytes()
    if spec.decision_mode == "band":
        assert result.quadrature_rows == (0, 0)


def _batch_calls(monkeypatch):
    """Spy on the Monte Carlo's table and direct calls; returns a list of (dz, centers).

    A table call's centers are its grid, lo + i*h with h the rule's node
    spacing, with the last point, which lies up to a step past the run,
    moved back to the run's end hi; a pulse makes its table call, if any,
    before its direct call.
    """
    calls = []

    def direct(centers, dz, *args, **kwargs):
        calls.append((dz, np.array(centers, dtype=float)))
        return mw.averaged_probability_batch(centers, dz, *args, **kwargs)

    def table(lo, hi, dz, *args, **kwargs):
        out = probability.averaged_probability_table(lo, hi, dz, *args, **kwargs)
        step = probability._packet_rule(dz, kwargs["window_sigmas"]).step
        calls.append((dz, np.minimum(lo + step * np.arange(out.size), hi)))
        return out

    monkeypatch.setattr(phase_space, "averaged_probability_batch", direct)
    monkeypatch.setattr(phase_space, "averaged_probability_table", table)
    return calls


def test_thermal_cloud_rarely_needs_quadrature(
    monkeypatch, cfg, pulse_first, pulse_second
):
    calls = _batch_calls(monkeypatch)
    spec = mw.EnsembleSpec(n=20000, seed=20260815, **_THERMAL)
    result = mw.run_monte_carlo(spec, pulse_first, pulse_second, cfg)
    rows1, rows2 = result.quadrature_rows
    assert 0 < rows1 <= 0.05 * spec.n
    assert 0 < rows2 <= result.n_survived_first
    # the open atoms of a wide cloud are a dense core with sparse tails: pulse 1
    # tabulates the core and the tails up to any atom 64 steps beyond the rest,
    # and sends such atoms with the near-tolerance ones to one direct call, so
    # the rule and the table together cost fewer rows than half of the open atoms
    first = [centers for dz, centers in calls if dz == spec.dz0]
    assert len(first) == 2
    grid, direct = first
    assert np.allclose(np.diff(grid[:-1]), probability._packet_rule(spec.dz0).step)
    z0 = phase_space._draws(spec)[0]
    assert np.isin(direct, z0).all()
    assert _rows(grid, direct) < 0.5 * rows1
    # pulse 2 costs no more rows than the bound leaves open, in at most a
    # table call and a direct call
    second = [centers for dz, centers in calls if dz != spec.dz0]
    assert 1 <= len(second) <= 2 and _rows(*second) <= rows2
    # bookkeeping only: the summary keeps its keys
    assert not any("quadrature" in key for key in result.summary())


def _rows(*tables_then_direct):
    """Direct rows a pulse's calls cost: each table point _POINT_ROWS, each direct row 1."""
    *grids, direct = tables_then_direct
    return sum(g.size for g in grids) * phase_space._POINT_ROWS + direct.size


def _bin_bounds(z, dz, pulse, cfg, window_sigmas=8.0):
    """Each atom's bin bound, binned as _accept bins a pulse of more than _BIN_ATOMS."""
    z_min, z_max = z.min(), z.max()
    w = max(phase_space._BIN_STEP * dz, (z_max - z_min) * 8.0 / z.size)
    k = np.floor((z - z_min) / w)
    return probability.averaged_probability_bound(
        z_min + (k - 1.0) * w, z_min + (k + 2.0) * w, dz, pulse, cfg,
        window_sigmas=window_sigmas,
    )


def test_matched_cloud_is_decided_from_tables(
    monkeypatch, cfg, pulse_first, pulse_second
):
    calls = _batch_calls(monkeypatch)
    spec = mw.EnsembleSpec(n=50000, seed=20260815, **_MATCHED)
    result = mw.run_monte_carlo(spec, pulse_first, pulse_second, cfg)
    rows1, rows2 = result.quadrature_rows
    assert rows1 > 0.8 * spec.n
    # per pulse one table call and one call for the atoms it cannot decide
    assert len(calls) == 4
    assert 0 < sum(centers.size for _, centers in calls) < 0.05 * (rows1 + rows2)
    # pulse 1 bins its atoms: rows1 counts the atoms their bins' bounds leave
    # open, a superset of those the per-atom bound leaves open
    z0, _, u1, _ = phase_space._draws(spec)
    assert spec.n > phase_space._BIN_ATOMS
    assert rows1 == np.count_nonzero(u1 < _bin_bounds(z0, spec.dz0, pulse_first, cfg))
    bound = probability.averaged_probability_bound(z0, z0, spec.dz0, pulse_first, cfg)
    z_open = z0[u1 < bound]
    assert z_open.size <= rows1
    # the pulse-1 table spans every open atom: its sparse ends cost fewer rows
    # as grid points than as direct rows, so the direct call holds only the
    # atoms near the tolerance
    grid, direct = calls[0][1], calls[1][1]
    assert (grid[0], grid[-1]) == (z_open.min(), z_open.max())
    assert direct.size < 0.001 * rows1


def _use_draws(monkeypatch, draws):
    """Make every run draw (z, v, u1, u2) = draws, serial or on the worker.

    Both paths draw each stream through phase_space._stream, so patching
    it, not _draws, reaches a run of any size.
    """
    streams = dict(zip((0, 1, 2, 4), draws))
    monkeypatch.setattr(phase_space, "_stream", lambda _spec, key: streams[key])


def test_table_is_exact_for_draws_next_to_the_rule(monkeypatch):
    """Uniforms 1e-6 and 1e-5 from the rule's value: only the fallback decides them.

    The interpolation error of the table reaches about 3e-4, so deciding
    such atoms from the table, or with a tolerance below that error,
    flips decisions; the run must still match the every-atom reference.
    """
    cfg = mw.FieldConfig(eta=0.25, bias=0.0, species=mw.get_species("Rb87"))
    p1, p2 = _pulse_pair(cfg, -1, 0.0, _MATCHED["v_mean"])
    spec = mw.EnsembleSpec(n=4000, seed=5, sigma=-1, **_MATCHED)
    window = 5.0
    z0, v0, u1, u2 = phase_space._draws(spec)
    g = mw.g_effective(cfg.species, cfg.eta, Level.UPPER, -1)
    z2 = z0 + v0 * DELTA_T - 0.5 * g * DELTA_T * DELTA_T
    dz2 = mw.spread_width(spec.dz0, DELTA_T, cfg.species)
    rng = np.random.default_rng(17)
    top = np.nextafter(1.0, 0.0)

    def next_to_rule(z, dz, pulse):
        exact = mw.averaged_probability_batch(z, dz, pulse, cfg, window_sigmas=window)
        offset = rng.choice([-1e-5, -1e-6, 1e-6, 1e-5], size=z.size)
        return np.clip(exact + offset, 0.0, top)

    draws = (z0, v0, next_to_rule(z0, spec.dz0, p1), next_to_rule(z2, dz2, p2))
    _use_draws(monkeypatch, draws)
    result = mw.run_monte_carlo(spec, p1, p2, cfg, window_sigmas=window)
    assert result.z0 is draws[0]
    want = _every_atom_averaged(spec, p1, p2, cfg, DELTA_T, window_sigmas=window)
    assert 0 < result.n_survived_both < result.n_survived_first < spec.n
    names = ("survived_first", "survived_both", "z_final", "v_final")
    for name, ref in zip(names, want):
        assert getattr(result, name).tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_thermal_core_table_matches_every_atom_reference(monkeypatch, seed, sigma):
    cfg = mw.FieldConfig(eta=0.25, bias=0.0, species=mw.get_species("Rb87"))
    p1, p2 = _pulse_pair(cfg, sigma, 0.0, _THERMAL["v_mean"])
    spec = mw.EnsembleSpec(n=20000, seed=seed, sigma=sigma, **_THERMAL)
    calls = _batch_calls(monkeypatch)
    result = mw.run_monte_carlo(spec, p1, p2, cfg)
    # the core table and the direct call at pulse 1 cost fewer rows than are open
    first = [centers for dz, centers in calls if dz == spec.dz0]
    assert len(first) == 2 and _rows(*first) < result.quadrature_rows[0]
    want = _every_atom_averaged(spec, p1, p2, cfg, DELTA_T)
    assert result.n_survived_both > 0
    names = ("survived_first", "survived_both", "z_final", "v_final")
    for name, ref in zip(names, want):
        assert getattr(result, name).tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("sigma", [1, -1])
def test_one_sided_tail_matches_every_atom_reference(monkeypatch, sigma):
    """A thermal cloud folded onto z <= 0, with pulse 1 resonant at its edge.

    The open atoms at pulse 1 are a dense core at the edge and a sparse
    tail on the inner side only, so the tabulated run ends at the
    highest open atom and every row left to the direct call lies below it.
    """
    cfg = mw.FieldConfig(eta=0.25, bias=0.0, species=mw.get_species("Rb87"))
    p1, p2 = _pulse_pair(cfg, sigma, 0.0, _THERMAL["v_mean"])
    spec = mw.EnsembleSpec(n=20000, seed=4, sigma=sigma, **_THERMAL)
    z0, v0, u1, u2 = phase_space._draws(spec)
    draws = (-np.abs(z0), v0, u1, u2)
    _use_draws(monkeypatch, draws)
    calls = _batch_calls(monkeypatch)
    result = mw.run_monte_carlo(spec, p1, p2, cfg)
    assert result.z0 is draws[0]
    first = [centers for dz, centers in calls if dz == spec.dz0]
    assert len(first) == 2
    grid, direct = first
    assert direct.size and direct.max() < grid[-1]
    assert grid.size + direct.size < result.quadrature_rows[0]
    want = _every_atom_averaged(spec, p1, p2, cfg, DELTA_T)
    assert result.n_survived_both > 0
    names = ("survived_first", "survived_both", "z_final", "v_final")
    for name, ref in zip(names, want):
        assert getattr(result, name).tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("extra", [0, 1])
def test_dense_run_is_tabulated_only_if_it_saves_a_call(
    monkeypatch, cfg, pulse_first, extra
):
    """A run whose table costs as many direct rows as it has atoms stays direct.

    Sparse atoms 100 table steps apart, each farther from the next than
    its grid points are worth (100*_POINT_ROWS > 1 row), flank a cluster
    within one step, which a 2-point table covers at a cost of
    _TABLE_ROWS + 2*_POINT_ROWS rows: it pays for _TABLE_ROWS + 1 atoms,
    not for _TABLE_ROWS.
    """
    dz = 3e-6
    step = probability._packet_rule(dz).step
    assert 100 * phase_space._POINT_ROWS > 1
    cluster = np.linspace(0.0, 0.9 * step, phase_space._TABLE_ROWS + extra)
    flanks = 100.0 * step * np.arange(1, 21)
    z = np.concatenate((-flanks[::-1], cluster, 0.9 * step + flanks))
    u = np.random.default_rng(5).random(z.size)
    spec = mw.EnsembleSpec(n=z.size, seed=1, **_THERMAL)
    # every atom is open: 1 bounds every average
    monkeypatch.setattr(
        phase_space, "averaged_probability_bound",
        lambda lo, hi, *a, **k: np.ones(lo.size),
    )
    calls = _batch_calls(monkeypatch)
    keep, n_open = phase_space._accept(u, z, dz, pulse_first, cfg, spec, 8.0)
    assert n_open == z.size
    if extra:
        (_, grid), (_, direct) = calls
        assert (grid[0], grid[-1]) == (cluster[0], cluster[-1]) and grid.size == 2
        assert direct.size >= 2 * flanks.size
    else:
        ((_, direct),) = calls
        assert direct.size == z.size
    want = u < mw.averaged_probability_batch(z, dz, pulse_first, cfg)
    assert keep.tobytes() == want.tobytes()


def _raises_quadrature_error(call) -> bool:
    try:
        call()
    except mw.QuadratureError:
        return True
    return False


@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize(
    "layout,seed", [("split", 4), ("split", 6), ("whole-span", 8), ("whole-span", 9)]
)
def test_wide_packet_raises_as_one_call_would(monkeypatch, layout, seed, sigma):
    """QuadratureError from the pulse's table and direct call, or from neither.

    At 25 G/cm and tau = 10 us the rule's phase limit falls near dz = 107
    um, where a table step (the rule's node spacing) is 8.5 um and a gap
    of 64 steps (545 um) between open atoms costs a table as many rows as
    an atom saves.  The open atoms of 150 atoms of the thermal cloud
    folded onto z <= 0 lie closer than that, so the table spans all of
    them and the direct call holds only atoms near its tolerance
    ("whole-span").  Of 200 folded atoms, one moved to 0.8 mm above
    resonance with u = 0 is open and farther than that from the rest, so
    the table spans the others and the direct call holds that atom
    ("split").  Bisecting dz to the last float where one batch call over
    every open atom still passes, _accept must pass there and raise one
    float step above.
    """
    cfg = mw.FieldConfig(eta=0.25, bias=0.0, species=mw.get_species("Rb87"))
    pulse, _ = _pulse_pair(cfg, sigma, 0.0, _THERMAL["v_mean"])
    n = 200 if layout == "split" else 150
    spec = mw.EnsembleSpec(n=n, seed=seed, sigma=sigma, **_THERMAL)
    z, _, u, _ = phase_space._draws(spec)
    z = -np.abs(z)
    if layout == "split":
        z[0], u[0] = 0.8e-3, 0.0

    def one_call(dz):
        rows = u < probability.averaged_probability_bound(z, z, dz, pulse, cfg)
        return _raises_quadrature_error(
            lambda: mw.averaged_probability_batch(z[rows], dz, pulse, cfg)
        )

    def accept(dz):
        return _raises_quadrature_error(
            lambda: phase_space._accept(u, z, dz, pulse, cfg, spec, 8.0)
        )

    lo, hi = 50e-6, 300e-6
    assert not one_call(lo) and one_call(hi)
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            mid = np.nextafter(lo, hi)
        lo, hi = (lo, mid) if one_call(mid) else (mid, hi)
    calls = _batch_calls(monkeypatch)
    for dz, want in ((50e-6, False), (lo, False), (hi, True), (300e-6, True)):
        assert accept(dz) == want, dz
    calls.clear()
    accept(lo)
    assert len(calls) == 2  # a table and a direct call
    (_, grid), (_, direct) = calls
    rows = u < probability.averaged_probability_bound(z, z, lo, pulse, cfg)
    z_open = z[rows]
    whole = (grid[0], grid[-1]) == (z_open.min(), z_open.max())
    assert whole == (layout == "whole-span")
    both = np.concatenate((grid, direct))
    assert (both.min(), both.max()) == (z_open.min(), z_open.max())


# The binned path of _open_rows on every size: the same exactness checks
# with every pulse binned, however few its atoms.


@pytest.mark.parametrize("case", sorted(_equivalence_cases()))
def test_binned_monte_carlo_matches_every_atom_reference(monkeypatch, case):
    monkeypatch.setattr(phase_space, "_BIN_ATOMS", 0)
    test_monte_carlo_matches_every_atom_reference(case)


def test_binned_monte_carlo_is_exact_across_the_regime(monkeypatch):
    monkeypatch.setattr(phase_space, "_BIN_ATOMS", 0)
    test_monte_carlo_is_exact_across_the_regime()


@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize(
    "layout,seed", [("split", 4), ("split", 6), ("whole-span", 8), ("whole-span", 9)]
)
def test_binned_wide_packet_raises_as_one_call_would(monkeypatch, layout, seed, sigma):
    monkeypatch.setattr(phase_space, "_BIN_ATOMS", 0)
    test_wide_packet_raises_as_one_call_would(monkeypatch, layout, seed, sigma)


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("cloud", ["thermal", "matched"])
def test_benchmark_clouds_match_open_atom_reference(cfg, pulse_first, pulse_second,
                                                    cloud, seed):
    """50k atoms, as the benchmark runs them: pulse 1 bins on both clouds."""
    spec = mw.EnsembleSpec(
        n=50000, seed=seed, **(_THERMAL if cloud == "thermal" else _MATCHED)
    )
    assert spec.n > phase_space._BIN_ATOMS
    result = mw.run_monte_carlo(spec, pulse_first, pulse_second, cfg)
    want = _open_atoms_averaged(spec, pulse_first, pulse_second, cfg, 8.0)
    assert _outcome(lambda: result) == _outcome(lambda: want)
    z0, _, u1, _ = phase_space._draws(spec)
    bound = probability.averaged_probability_bound(z0, z0, spec.dz0, pulse_first, cfg)
    assert np.count_nonzero(u1 < bound) <= result.quadrature_rows[0]


# Each benchmark workload's simulate call, on configs/rb87_10us.yaml: its
# --set overrides, its n, and per pulse whether the bound pass bins the
# atoms and whether the pulse builds a table (every pulse also makes one
# direct call, for the atoms the table leaves and those outside its run).
_BENCHMARK_PATHS = {
    "simulate_thermal": ([], 50000, ((True, True), (False, True))),
    "simulate_matched": (
        ["ensemble.z_rms=20 um", "ensemble.v_rms=2 mm/s"], 50000,
        ((True, True), (True, True)),
    ),
    "cli_suite": ([], 2000, ((False, True), (False, False))),
}


def _benchmark_run(workload, n, seed):
    """(spec, pulse 1, pulse 2, field) of a benchmark workload's simulate call."""
    overrides = _BENCHMARK_PATHS[workload][0]
    run = cf.load_config(CONFIG, [*overrides, f"ensemble.n={n}", f"ensemble.seed={seed}"])
    fcfg = cf.to_field_config(run)
    return cf.to_ensemble_spec(run), *cf.to_pulses(run, fcfg), fcfg


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(_BENCHMARK_PATHS))
def test_benchmark_pulses_take_their_paths(monkeypatch, workload, seed):
    _, n, want = _BENCHMARK_PATHS[workload]
    spec, *pulses, fcfg = _benchmark_run(workload, n, seed)
    binned = []
    real_bin_bound = phase_space._bin_bound

    def bin_bound(z, dz, bound):
        binned.append(dz)
        return real_bin_bound(z, dz, bound)

    monkeypatch.setattr(phase_space, "_bin_bound", bin_bound)
    calls = _batch_calls(monkeypatch)
    mw.run_monte_carlo(spec, *pulses, fcfg)
    # a table call, if any, then the direct call, per pulse
    widths = [dz for dz, _ in calls]
    dz2 = widths[-1]
    assert widths[0] == spec.dz0 != dz2
    got = tuple((dz in binned, widths.count(dz) == 2) for dz in (spec.dz0, dz2))
    assert got == want


# sha256 over survived_first and survived_both of seeds 1-8, in order, at
# n = 20k on each benchmark cloud, as the Gauss-Legendre rule decided them
# before the rule's nodes were spaced evenly
_DECISION_HASHES = {
    "simulate_thermal": "0b8118cda94ea67914bbb478da4be7ff809bc11011793a7c38f618e13a693b11",
    "simulate_matched": "799568f35faf8c43d8a13e0904d5946c9c3628e6f70c3f9e51f5b43d0b416c79",
}


@pytest.mark.parametrize("workload", sorted(_DECISION_HASHES))
def test_benchmark_cloud_decisions_are_pinned(workload):
    """Any decision that flips on a benchmark cloud changes the hash."""
    digest = hashlib.sha256()
    for seed in range(1, 9):
        result = mw.run_monte_carlo(*_benchmark_run(workload, 20000, seed))
        digest.update(result.survived_first.tobytes())
        digest.update(result.survived_both.tobytes())
    assert digest.hexdigest() == _DECISION_HASHES[workload]


@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("n,bin_atoms", [(5000, None), (50, 0)])
def test_tied_cloud_matches_open_atom_reference(monkeypatch, n, bin_atoms, sigma):
    """z_rms = 0 ties every pulse-1 position: one bin and a one-point table."""
    if bin_atoms is not None:
        monkeypatch.setattr(phase_space, "_BIN_ATOMS", bin_atoms)
    assert n > phase_space._BIN_ATOMS
    cfg = mw.FieldConfig(eta=0.25, bias=0.0, species=mw.get_species("Rb87"))
    p1, p2 = _pulse_pair(cfg, sigma, 0.0, _MATCHED["v_mean"])
    spec = mw.EnsembleSpec(n=n, seed=9, sigma=sigma, **dict(_MATCHED, z_rms=0.0))
    calls = _batch_calls(monkeypatch)
    result = mw.run_monte_carlo(spec, p1, p2, cfg)
    assert calls[0][1].tolist() == [0.0]  # pulse 1's table
    assert 0 < result.n_survived_both < result.n_survived_first < n
    want = _open_atoms_averaged(spec, p1, p2, cfg, 8.0)
    assert _outcome(lambda: result) == _outcome(lambda: want)


@pytest.mark.parametrize("layout", ["alone", "run-end"])
def test_superset_only_end_atom_keeps_the_pulse(monkeypatch, cfg, pulse_first, layout):
    """An end atom that only its bin's bound leaves open is rejected alone.

    80 atoms 50-60 um below resonance, all open but the lowest, whose
    draw lies between its own bound and its bin's.  "alone": it sits 20
    um below the rest, in a bin of its own outside the run, so the run's
    lowest atom shows the run's end open.  "run-end": it is the run's
    lowest atom and none below it is open, so every row gets its own
    bound and the run starts at the next atom.
    """
    monkeypatch.setattr(phase_space, "_BIN_ATOMS", 0)
    dz = 3e-6
    z = np.linspace(-60e-6, -50e-6, 80)
    if layout == "alone":
        z[0] = -80e-6

    def bound(lo, hi):
        return probability.averaged_probability_bound(lo, hi, dz, pulse_first, cfg)

    own, binned = bound(z[:1], z[:1])[0], phase_space._bin_bound(z, dz, bound)[0]
    assert own < binned
    u = np.zeros(z.size)
    u[0] = 0.5 * (own + binned)
    spec = mw.EnsembleSpec(n=z.size, seed=1, **_THERMAL)
    sizes = []

    def spy(lo, hi, *args, **kwargs):
        sizes.append(lo.size)
        return probability.averaged_probability_bound(lo, hi, *args, **kwargs)

    monkeypatch.setattr(phase_space, "averaged_probability_bound", spy)
    calls = _batch_calls(monkeypatch)
    keep, n_open = phase_space._accept(u, z, dz, pulse_first, cfg, spec, 8.0)
    assert n_open == z.size
    # the bins, the rows outside the run with its two ends, and then, for
    # "run-end", every other row
    assert sizes[1:] == ([3] if layout == "alone" else [2, 78])
    want = u < mw.averaged_probability_batch(z, dz, pulse_first, cfg)
    assert keep.tobytes() == want.tobytes()
    assert keep[1:].all() and not keep[0]
    (_, grid), (_, direct) = calls
    assert (grid[0], grid[-1]) == (z[1], z[-1]) and direct.size < z.size


@pytest.mark.parametrize("points", [1, 2, 283])
def test_table_lookup_matches_np_interp(cfg, pulse_first, points):
    """The direct index reads the table as np.interp does, ends included."""
    lo = -40e-6
    hi = lo if points == 1 else 65e-6
    grid = np.linspace(lo, hi, points)
    table = mw.averaged_probability_batch(grid, 3e-6, pulse_first, cfg)
    rng = np.random.default_rng(points)
    z = np.concatenate(([lo, hi], grid, rng.uniform(lo, hi, 5000)))
    step = (hi - lo) / max(points - 1, 1)
    got = phase_space._lookup(z, lo, step, table)
    assert np.max(np.abs(got - np.interp(z, grid, table))) <= 1e-14
    assert (got[0], got[1]) == (table[0], table[-1])
