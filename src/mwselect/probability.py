"""Flip probability of a square pulse averaged over a wavepacket.

For a two-level atom at fixed position z, a square pulse of duration tau
flips the state with probability

    p(z) = (2*omega0/Omega_R)^2 * sin^2(Omega_R*tau/2),
    Omega_R = sqrt(detuning(z)^2 + 4*omega0^2),

which is 1 on resonance for the pi-pulse coupling omega0 = pi/(2*tau).
Its Rabi envelope (2*omega0/Omega_R)^2 falls to 1/2 where |detuning| =
2*omega0; p itself is sin^2(pi/sqrt(2))/2 = 0.3166 there.  A packet of
rms width dz samples p over its Gaussian position density; the average
is one fixed-order Gauss-Legendre rule (averaged_probability_batch),
taken row by row for Monte Carlo batches and as a one-row call for a
single packet (transition_probability, which can also report the rule's
error estimate).  averaged_probability_bound caps the rule from the Rabi
envelope, so a Monte Carlo decision that the average cannot change
skips the quadrature, and interpolation_tolerance bounds how far a
linear interpolation of the rule on a grid of centers can be from the
rule itself, so a decision far enough from that interpolant needs no
quadrature of its own either.
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

_MAX_PHASE_PER_NODE = 1.4  # rad of detuning phase per node the fixed rule resolves
_BOUND_ROUNDOFF = 1e-12  # relative float slack of averaged_probability_bound
RULE_ORDER = 201  # nodes of the packet-average rule
_ESTIMATE_ORDER = 101  # lower order whose gap to the full rule estimates its error
_RULE_ERROR = 5e-12  # calibrated gap of the rule to the windowed average (see the batch)
_CURVATURE = 2.0 * math.exp(-0.5) / math.sqrt(2.0 * math.pi)  # 2*phi(1), see below
_FLOAT_SLACK = 1e-9  # absolute slack of interpolation_tolerance for rounding
_BLOCK = 128  # rows of one (rows, order) evaluation in _rule_sum


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
    (p, error), where error = |p - p_101| is the gap to the same rule
    at order 101, which resolves less and so overstates the error of p.
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
    coarse_rule = _packet_rule(dz, _ESTIMATE_ORDER, window)
    (coarse,) = _rule_sum(centers, coarse_rule, pulse, cfg)
    return float(value), float(abs(value - coarse))


@lru_cache(maxsize=8)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _packet_rule(
    dz: float, order: int, window_sigmas: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Node offsets, combined weights (density * quadrature weight), half-window."""
    if not dz > 0.0:
        raise ValueError("dz must be positive")
    _check_window(window_sigmas)
    nodes, weights = _gauss_legendre(order)
    half = window_sigmas * dz
    offsets = half * nodes
    gauss = np.exp(-0.5 * (offsets / dz) ** 2) / (math.sqrt(2.0 * math.pi) * dz)
    return offsets, gauss * weights * half, half


def averaged_probability_batch(
    centers: np.ndarray,
    dz: float,
    pulse: PulseSpec,
    cfg: FieldConfig,
    window_sigmas: float = 8.0,
) -> np.ndarray:
    """Packet-averaged flip probability for many centers at a common width.

    The package's one packet-average rule: the Gaussian density times
    the point probability, integrated by fixed-order Gauss-Legendre over
    +/- window_sigmas widths as one (n_centers, 201) evaluation reduced
    row by row, so a batch split into chunks reproduces the unsplit
    result bit for bit.

    A fixed rule resolves only so many detuning oscillations across the
    window.  The detuning phase changes across a window by at most
    max|d omega/dz| * 2*half * tau/2; the transition is convex in z, so
    over all windows of the call that maximum slope sits at the lowest
    or the highest window end (two slope evaluations per call).  Above
    1.4 rad per node QuadratureError is raised.  Against a 2M-point
    midpoint sum the rule is within 5e-12 up to that limit (orders 101
    and 201; Rb87, Na23, Cs133; tau 5-20 us) and degrades beyond it:
    5e-10 at 1.5 rad per node for order 101, 1e-8 at 1.8 for order 201,
    2.4e-2 at 3.9.  At 25 G/cm and tau = 10 us the limit falls at dz =
    107 um: dz = 100 um passes (within 2e-12), dz = 300 um raises.
    """
    centers = np.asarray(centers, dtype=float)
    rule = _packet_rule(dz, RULE_ORDER, window_sigmas)
    half = rule[2]
    if centers.size:
        ends = np.array([centers.min() - half, centers.max() + half])
        slope = float(np.max(np.abs(d_transition_dz(pulse.branch, ends, cfg))))
        phase = slope * half * pulse.tau
        if not phase <= _MAX_PHASE_PER_NODE * RULE_ORDER:
            raise QuadratureError(
                f"packet width {dz:.6g} m is too wide for the {RULE_ORDER}-node rule: "
                f"the detuning phase changes by {phase:.6g} rad across the window, "
                f"more than the {_MAX_PHASE_PER_NODE * RULE_ORDER:.6g} rad it resolves"
            )
    return np.clip(_rule_sum(centers, rule, pulse, cfg), 0.0, 1.0)


def _rule_sum(centers, rule, pulse, cfg) -> np.ndarray:
    """Sums of a _packet_rule over centers, without the phase check or clipping.

    At most _BLOCK rows are evaluated at a time, which keeps each
    (rows, order) float64 temporary near 200 KB and so in cache; rows are
    summed independently, so the block size does not change a bit of the
    result.
    """
    offsets, factors, _ = rule
    out = np.empty(centers.size)
    for start in range(0, centers.size, _BLOCK):
        block = centers[start:start + _BLOCK, None] + offsets[None, :]
        vals = point_probability(block, pulse, cfg)
        out[start:start + _BLOCK] = np.sum(vals * factors[None, :], axis=1)
    return out


def interpolation_tolerance(step: float, dz: float, window_sigmas: float) -> float:
    """Bound on |linear interpolant - averaged_probability_batch| between grid points.

    The batch values at centers spaced by step (having passed the phase
    check) are interpolated linearly; at any center in between, the
    interpolant is within

        eps = step^2/8 * 2*phi(1)/dz^2 + 2*(5e-12 + erfc(W/sqrt(2))) + 1e-9

    of the batch value there (W = window_sigmas, phi the normal density).
    The exact Gaussian average P has P'' = int (p - 1/2) G'' because
    int G'' = 0, so 0 <= p <= 1 gives |P''| <= int|G''|/2 = 2*phi(1)/dz^2
    = 0.4839/dz^2, and interpolating P is off by at most step^2/8 times
    that.  At the grid and at the center the rule differs from P by at
    most its calibrated 5e-12 plus the Gaussian mass outside its window,
    erfc(W/sqrt(2)) (1.2e-15 at 8, 5.7e-7 at the minimum of 5); clipping
    to [0, 1] does not widen the gap, and 1e-9 covers rounding.  At step
    = dz/8 and W = 8, eps = 9.45e-4.
    """
    smooth = step * step / 8.0 * _CURVATURE / (dz * dz)
    rule = _RULE_ERROR + math.erfc(window_sigmas / math.sqrt(2.0))
    return smooth + 2.0 * rule + _FLOAT_SLACK


def averaged_probability_bound(
    centers: np.ndarray,
    dz: float,
    pulse: PulseSpec,
    cfg: FieldConfig,
    window_sigmas: float = 8.0,
) -> np.ndarray:
    """Upper bound on averaged_probability_batch, row by row, from 4 evaluations.

    The batch value is sum_j f_j * p(z_j) over nodes z_j inside the
    window [a, b] = [c - half, c + half], with weights f_j >= 0, and
    each p(z_j) <= 4*w0^2/(delta(z_j)^2 + 4*w0^2), the Rabi envelope.
    In the units of breit_rabi the transition is 1/2 + b*u + s/2 with
    s = sqrt(1 + 2*r*u + u^2) and u affine in z, so T''(u) = (1 - r^2)/
    (2*s^3) > 0 (r = F-/F+ < 1): the detuning delta(z) is convex in z
    (strictly, for a nonzero gradient) for every species, sigma and bias.  On [a, b] it
    therefore lies above both end tangents and below the chord, and

        |delta| >= delta_min = max(0, min_[a,b] max(tangent_a, tangent_b),
                                   -max(delta(a), delta(b))),

    the first term being delta(a) if delta'(a) >= 0, delta(b) if
    delta'(b) <= 0, and the tangents' crossing value otherwise.  Hence

        batch <= envelope(delta_min) * sum_j f_j.

    Float error is covered by subtracting 1e-12 * S from delta_min and
    adding 1e-12 to the weight sum, where S = omega_A + delta_W * (1 +
    |x(0)| + |kappa| * (|a| + |b|)) bounds, to a factor of about 3,
    every term met in detuning, its slope, the tangents and the crossing
    (each rounded a few tens of times at most); the rest of the chain is
    a few roundings relative to 1.
    """
    centers = np.asarray(centers, dtype=float)
    _, factors, half = _packet_rule(dz, RULE_ORDER, window_sigmas)
    lo = centers - half
    hi = centers + half
    d_lo, d_hi = (detuning(z, pulse, cfg) for z in (lo, hi))
    s_lo, s_hi = (d_transition_dz(pulse.branch, z, cfg) for z in (lo, hi))
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = (s_hi * d_lo - s_lo * d_hi + s_lo * s_hi * (hi - lo)) / (s_hi - s_lo)
    above = np.where(s_lo >= 0.0, d_lo, np.where(s_hi <= 0.0, d_hi, crossing))
    delta_min = np.maximum(above, -np.maximum(d_lo, d_hi))
    scale = pulse.omega_A + cfg.species.delta_W * (
        1.0
        + abs(float(field_coordinate(cfg, 0.0)))
        + abs(kappa(cfg)) * (np.abs(lo) + np.abs(hi))
    )
    delta_min = np.maximum(delta_min - _BOUND_ROUNDOFF * scale, 0.0)
    w0 = pulse.coupling_omega0
    envelope = 4.0 * w0 * w0 / (delta_min * delta_min + 4.0 * w0 * w0)
    return envelope * (float(np.sum(factors)) + _BOUND_ROUNDOFF)
