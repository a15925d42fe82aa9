"""Flip probability of a square pulse averaged over a wavepacket.

For a two-level atom at fixed position z, a square pulse of duration tau
flips the state with probability

    p(z) = (2*omega0/Omega_R)^2 * sin^2(Omega_R*tau/2),
    Omega_R = sqrt(detuning(z)^2 + 4*omega0^2),

which is 1 on resonance for the pi-pulse coupling omega0 = pi/(2*tau).
Its Rabi envelope (2*omega0/Omega_R)^2 falls to 1/2 where |detuning| =
2*omega0; p itself is sin^2(pi/sqrt(2))/2 = 0.3166 there.  A packet of
rms width dz samples p over its Gaussian position density; the average
is one fixed rule of 201 evenly spaced nodes (averaged_probability_batch),
taken row by row for Monte Carlo batches and as a one-row call for a
single packet (transition_probability, which can also report the rule's
error estimate).  averaged_probability_bound caps the rule from the Rabi
envelope for every packet centered in a range [lo, hi] (one center when
lo = hi, a bin of Monte Carlo atoms otherwise), so a decision that the
average cannot change skips the quadrature.  averaged_probability_table
is the same rule on a grid of centers spaced like its nodes, so every
node of every center is a grid point and one convolution takes it, and
the rule's tolerance bounds how far a linear interpolation of that
table can be from the rule, so a decision far enough from that
interpolant needs no quadrature of its own either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .breit_rabi import FieldConfig, d_transition_dz, field_coordinate, kappa
from .dynamics import WavepacketState
from .errors import LevelMismatchError, QuadratureError
from .selection import PulseSpec, detuning

_MAX_PHASE_PER_NODE = 1.4  # cap on rad of detuning phase per node; the rule resolves ~2x
_BOUND_ROUNDOFF = 1e-12  # relative float slack of averaged_probability_bound
RULE_ORDER = 201  # evenly spaced nodes of the packet-average rule
_RULE_ERROR = 1e-11  # calibrated gap of the rule to the windowed average (see the batch)
_CURVATURE = 2.0 * math.exp(-0.5) / math.sqrt(2.0 * math.pi)  # 2*phi(1), see below
_FLOAT_SLACK = 1e-9  # absolute slack of _PacketRule.tolerance for rounding
_BLOCK = 128  # rows of one (rows, order) evaluation in _rule_sum
_TABLE_BLOCK = 8192  # grid points of one convolution in averaged_probability_table


def _check_window(window_sigmas: float) -> None:
    """Reject a packet-average half-window outside [5, 40] packet widths.

    Below 5 the truncated Gaussian tail (5.7e-7 of the weight at 5) is
    no longer negligible, and past about 38.6 the Gaussian weight at the
    window's edge underflows to 0.
    """
    if not 5.0 <= window_sigmas <= 40.0:
        raise ValueError("window_sigmas must lie in [5, 40]")


@dataclass(frozen=True)
class QuadratureSettings:
    """Knobs for the packet average.

    window_sigmas is the half-width of the integration window in units
    of the packet width, within [5, 40] (see _check_window).
    """

    window_sigmas: float = 8.0

    def __post_init__(self) -> None:
        _check_window(self.window_sigmas)


def point_probability(z, pulse: PulseSpec, cfg: FieldConfig):
    """Flip probability for an atom at sharp position z; vectorizes over z."""
    d = np.asarray(detuning(z, pulse, cfg), dtype=float)
    w0 = pulse.coupling_omega0
    wr = np.sqrt(d * d + 4.0 * w0 * w0)
    amp = 2.0 * w0 / wr
    return amp * amp * np.sin(0.5 * wr * pulse.tau) ** 2


def transition_probability(
    state: WavepacketState,
    pulse: PulseSpec,
    cfg: FieldConfig,
    settings: QuadratureSettings | None = None,
    detail: bool = False,
):
    """Pulse flip probability averaged over the packet's position density.

    A one-row averaged_probability_batch call at center state.z and
    width state.dz over +/- window_sigmas widths, so it shares the
    batch rule's QuadratureError check.  With detail=True it returns
    (p, error), where error = |p - p_101| is the gap to the 101-node
    rule on the rule's even nodes (each weighing two cells), which
    resolves less and so overstates the error of p.
    The pulse must address the packet's stretched pair (matching sigma).
    """
    if settings is None:
        settings = QuadratureSettings()
    if state.sigma != pulse.branch.sigma:
        raise LevelMismatchError(
            f"pulse drives the sigma={pulse.branch.sigma} pair but the packet "
            f"has sigma={state.sigma}"
        )
    centers = np.array([state.z])
    dz, window = state.dz, settings.window_sigmas
    (value,) = averaged_probability_batch(centers, dz, pulse, cfg, window_sigmas=window)
    if not detail:
        return float(value)
    rule = _packet_rule(dz, window)
    (coarse,) = _rule_sum(centers, rule.offsets[::2], 2.0 * rule.factors[::2], pulse, cfg)
    return float(value), float(abs(value - coarse))


@dataclass(frozen=True)
class _PacketRule:
    """The packet-average rule of width dz over +/- W widths, half = W*dz.

    RULE_ORDER offsets evenly spaced by step = 2*half/(RULE_ORDER - 1)
    over [-half, half], each with a factor step*phi(offset/dz)/dz, the
    Gaussian density times its cell; weight is the factors' sum.  The even
    nodes, each weighing two cells, are the error estimate's 101-node rule.
    tolerance bounds |linear interpolant - averaged_probability_batch| at
    any center between the points of an averaged_probability_table
    (spaced by step, having passed the phase check):

        eps = step^2/8 * 2*phi(1)/dz^2 + 2*(1e-11 + erfc(W/sqrt(2))) + 1e-9

    (phi the normal density).  The exact Gaussian average P has P'' =
    int (p - 1/2) G'' because int G'' = 0, so 0 <= p <= 1 gives |P''| <=
    int|G''|/2 = 2*phi(1)/dz^2 = 0.4839/dz^2, and interpolating P is off
    by at most step^2/8 times that.  The table is the rule at its grid,
    and the rule differs from P by at most its calibrated 1e-11 plus the
    Gaussian mass outside its window, erfc(W/sqrt(2)) (1.2e-15 at 8,
    5.7e-7 at the minimum of 5), once at the grid and once at the center;
    clipping the rule to [0, 1] does not widen the gap, and 1e-9 covers
    rounding.  At W = 8 (step = 0.08*dz), eps = 3.87e-4.
    """

    offsets: np.ndarray
    factors: np.ndarray
    half: float
    weight: float
    step: float
    tolerance: float


@lru_cache(maxsize=64)
def _cached_rule(dz: float, window_sigmas: float) -> _PacketRule:
    if not dz > 0.0:
        raise ValueError("dz must be positive")
    _check_window(window_sigmas)
    half = window_sigmas * dz
    step = 2.0 * half / (RULE_ORDER - 1)
    offsets = step * np.arange(-(RULE_ORDER // 2), RULE_ORDER // 2 + 1)
    density = np.exp(-0.5 * (offsets / dz) ** 2) / (math.sqrt(2.0 * math.pi) * dz)
    factors = density * step
    offsets.flags.writeable = factors.flags.writeable = False
    smooth = step * step / 8.0 * _CURVATURE / (dz * dz)
    rule_error = _RULE_ERROR + math.erfc(window_sigmas / math.sqrt(2.0))
    tolerance = smooth + 2.0 * rule_error + _FLOAT_SLACK
    return _PacketRule(offsets, factors, half, float(np.sum(factors)), step, tolerance)


def _packet_rule(dz: float, window_sigmas: float = 8.0) -> _PacketRule:
    """The _PacketRule of width dz, cached by value: its arrays are read-only."""
    return _cached_rule(dz, window_sigmas)


def averaged_probability_batch(
    centers: np.ndarray,
    dz: float,
    pulse: PulseSpec,
    cfg: FieldConfig,
    window_sigmas: float = 8.0,
) -> np.ndarray:
    """Packet-averaged flip probability for many centers at a common width.

    The package's one packet-average rule: the Gaussian density times
    the point probability, summed over 201 nodes evenly spaced across
    +/- window_sigmas widths (_packet_rule) as one (n_centers, 201)
    evaluation reduced row by row, so a batch split into chunks
    reproduces the unsplit result bit for bit.

    A fixed rule resolves only so many detuning oscillations across the
    window.  The detuning phase changes across a window by at most
    max|d omega/dz| * 2*half * tau/2; the transition is convex in z, so
    over all windows of the call that maximum slope sits at the lowest
    or the highest window end (two slope evaluations per call).  Above
    1.4 rad per node (about 1.4 rad per node spacing) QuadratureError is
    raised.  Against a 2M-slice
    midpoint sum the rule is within 5.7e-12 up to that limit (Rb87, Na23
    and Cs133 at 25 G/cm, tau 5-20 us, dz from 3 um to 0.98 of the
    limit): the rounding noise of the point probability (1.7e-11 rms at
    tau = 20 us) carried through the weighted sum, which _RULE_ERROR
    charges at 1e-11.  The limit is well inside the rule's reach: within
    1e-12 up to twice it, 1.2e-4 off at 2.2 times and 1.7e-2 at 3 (the
    101-node estimate, on every other node, reaches half as far).  At 25
    G/cm and tau = 10 us the limit falls at dz = 107 um: dz = 100 um
    passes, dz = 300 um raises.
    """
    centers = np.asarray(centers, dtype=float)
    rule = _packet_rule(dz, window_sigmas)
    if centers.size:
        _check_phase(centers.min(), centers.max(), dz, rule, pulse, cfg)
    return np.clip(_rule_sum(centers, rule.offsets, rule.factors, pulse, cfg), 0.0, 1.0)


def _check_phase(lo, hi, dz, rule, pulse, cfg) -> None:
    """Raise QuadratureError unless the rule resolves every window centered in [lo, hi].

    See averaged_probability_batch: the steepest detuning slope over
    those windows sits at lo - half or at hi + half.
    """
    ends = np.array([lo - rule.half, hi + rule.half])
    slope = float(np.max(np.abs(d_transition_dz(pulse.branch, ends, cfg))))
    phase = slope * rule.half * pulse.tau
    if not phase <= _MAX_PHASE_PER_NODE * RULE_ORDER:
        raise QuadratureError(
            f"packet width {dz:.6g} m is too wide for the {RULE_ORDER}-node rule: "
            f"the detuning phase changes by {phase:.6g} rad across the window, "
            f"more than the {_MAX_PHASE_PER_NODE * RULE_ORDER:.6g} rad it resolves"
        )


def averaged_probability_table(
    lo: float,
    hi: float,
    dz: float,
    pulse: PulseSpec,
    cfg: FieldConfig,
    window_sigmas: float = 8.0,
) -> np.ndarray:
    """averaged_probability_batch on the grid lo + i*h over [lo, hi], by convolution.

    h is the rule's step, its node spacing, so the nodes of a grid center
    are grid points too.  The grid has P = ceil((hi - lo)/h) + 1 points,
    the last up to a step past hi.  The point probability is evaluated on
    it, extended by 100 points on each side (a center's outermost nodes),
    and convolved with the rule's factors: P + 200 point evaluations
    instead of 201*P, in blocks of _TABLE_BLOCK values so temporaries
    stay small.
    Each point equals the batch value at its center up to the rounding of
    its node positions and of its sum (the table is not clipped to [0,
    1]).  The phase check runs over [lo, hi], so QuadratureError is
    raised exactly when a batch call on centers spanning [lo, hi] would.
    """
    rule = _packet_rule(dz, window_sigmas)
    _check_phase(lo, hi, dz, rule, pulse, cfg)
    points = math.ceil((hi - lo) / rule.step) + 1
    reach = RULE_ORDER // 2
    out = np.empty(points)
    for start in range(0, points, _TABLE_BLOCK):
        stop = min(start + _TABLE_BLOCK, points)
        x = lo + rule.step * np.arange(start - reach, stop + reach)
        p = point_probability(x, pulse, cfg)
        out[start:stop] = np.convolve(p, rule.factors, "valid")
    return out


def _rule_sum(centers, offsets, factors, pulse, cfg) -> np.ndarray:
    """Sums of factors * p(center + offsets) per center, without phase check or clip.

    At most _BLOCK rows are evaluated at a time, which keeps each
    (rows, order) float64 temporary near 200 KB and so in cache; rows are
    summed independently, so the block size does not change a bit of the
    result.
    """
    out = np.empty(centers.size)
    for start in range(0, centers.size, _BLOCK):
        block = centers[start:start + _BLOCK, None] + offsets[None, :]
        vals = point_probability(block, pulse, cfg)
        out[start:start + _BLOCK] = np.sum(vals * factors[None, :], axis=1)
    return out


def averaged_probability_bound(
    lo: np.ndarray,
    hi: np.ndarray,
    dz: float,
    pulse: PulseSpec,
    cfg: FieldConfig,
    window_sigmas: float = 8.0,
) -> np.ndarray:
    """Upper bound on averaged_probability_batch for every center in [lo, hi].

    Elementwise over lo <= hi; lo = hi = centers bounds each center's own
    average, and a wider [lo, hi] bounds every packet centered in it at
    once (phase_space bins atoms this way).  The batch value at a center
    c is sum_j f_j * p(z_j) over nodes z_j inside the window [c - half,
    c + half], so inside [a, b] = [lo - half, hi + half], with weights
    f_j >= 0, and each p(z_j) <= 4*w0^2/(delta(z_j)^2 + 4*w0^2), the
    Rabi envelope.  In the units of breit_rabi the transition is 1/2 +
    b*u + s/2 with s = sqrt(1 + 2*r*u + u^2) and u affine in z, so
    T''(u) = (1 - r^2)/(2*s^3) > 0 (r = F-/F+ < 1): the detuning
    delta(z) is convex in z (strictly, for a nonzero gradient) for every
    species, sigma and bias.  On [a, b] it therefore lies above both end
    tangents and below the chord, and

        |delta| >= delta_min = max(0, min_[a,b] max(tangent_a, tangent_b),
                                   -max(delta(a), delta(b))),

    the first term being delta(a) if delta'(a) >= 0, delta(b) if
    delta'(b) <= 0, and the tangents' crossing value otherwise.  Hence

        batch <= envelope(delta_min) * sum_j f_j.

    For [a, b] inside [A, B] convexity gives tangent_A <= tangent_a and
    tangent_B <= tangent_b on [a, b], and max(delta(A), delta(B)) >=
    max(delta(a), delta(b)), so the bound over a wider range is never
    below the bound of a center in it.  Float error is covered by
    subtracting 1e-12 * S from delta_min and adding 1e-12 to the weight
    sum, where S = omega_A + delta_W * (1 + |x(0)| + |kappa| * (|a| +
    |b|)) bounds, to a factor of about 3, every term met in detuning, its
    slope, the tangents and the crossing (each rounded a few tens of
    times at most); the rest of the chain is a few roundings relative to
    1.  Where detuning is nearly flat (near a transition minimum),
    rounding can hide the exact gap between a range's delta_min and that
    of a center in it, so a range (lo < hi) subtracts twice the slack,
    which keeps its bound at or above every center's in it.  detuning and
    its slope are each evaluated once, over both window ends.
    """
    rule = _packet_rule(dz, window_sigmas)
    a = np.ravel(lo) - rule.half
    b = np.ravel(hi) + rule.half
    ends = np.concatenate((a, b))
    d = detuning(ends, pulse, cfg)
    s = d_transition_dz(pulse.branch, ends, cfg)
    d_a, d_b, s_a, s_b = d[:a.size], d[a.size:], s[:a.size], s[a.size:]
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = (s_b * d_a - s_a * d_b + s_a * s_b * (b - a)) / (s_b - s_a)
    above = np.where(s_a >= 0.0, d_a, np.where(s_b <= 0.0, d_b, crossing))
    delta_min = np.maximum(above, -np.maximum(d_a, d_b))
    scale = pulse.omega_A + cfg.species.delta_W * (
        1.0
        + abs(float(field_coordinate(cfg, 0.0)))
        + abs(kappa(cfg)) * (np.abs(a) + np.abs(b))
    )
    wide = np.ravel(lo) < np.ravel(hi)
    roundoff = np.where(wide, 2.0 * _BOUND_ROUNDOFF, _BOUND_ROUNDOFF)
    delta_min = np.maximum(delta_min - roundoff * scale, 0.0)
    w0 = pulse.coupling_omega0
    envelope = 4.0 * w0 * w0 / (delta_min * delta_min + 4.0 * w0 * w0)
    return envelope * (rule.weight + _BOUND_ROUNDOFF)
