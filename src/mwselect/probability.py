"""Flip probability of a square pulse averaged over a wavepacket.

For a two-level atom at fixed position z, a square pulse of duration tau
flips the state with probability

    p(z) = (2*omega0/Omega_R)^2 * sin^2(Omega_R*tau/2),
    Omega_R = sqrt(detuning(z)^2 + 4*omega0^2),

which is 1 on resonance for the pi-pulse coupling omega0 = pi/(2*tau)
and falls to 1/2 where |detuning| = 2*omega0.  A packet of rms width dz
samples p over its Gaussian position density; the average is done with
an adaptive Simpson rule (error-controlled, for single packets) or a
fixed-order Gauss-Legendre rule (fast and partition-stable, for Monte
Carlo batches).  averaged_probability_bound caps the batch rule from the
Rabi envelope, so a Monte Carlo decision that the average cannot change
skips the quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .breit_rabi import FieldConfig, d_transition_dz, field_coordinate, kappa
from .dynamics import WavepacketState
from .errors import LevelMismatchError, QuadratureError
from .selection import PulseSpec, detuning

_SCALE_FLOOR = 1e-12  # absolute floor for the relative-error scale
_MAX_PHASE_PER_NODE = 1.4  # rad of detuning phase per node the fixed rule resolves
_BOUND_ROUNDOFF = 1e-12  # relative float slack of averaged_probability_bound


@dataclass(frozen=True)
class QuadratureSettings:
    """Knobs for the packet average.

    window_sigmas is the half-width of the integration window in units
    of the packet width; below 5 the truncated tail is no longer
    negligible at the default tolerance, so smaller values are rejected.
    """

    window_sigmas: float = 8.0
    rel_tol: float = 1e-10
    max_subdivisions: int = 32768

    def __post_init__(self) -> None:
        if self.window_sigmas < 5.0:
            raise ValueError("window_sigmas must be at least 5")
        if self.rel_tol <= 0.0:
            raise ValueError("rel_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


@dataclass(frozen=True)
class QuadratureInfo:
    """Result bookkeeping: estimate, error estimate, work done."""

    value: float
    error: float
    evals: int
    intervals: int


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    max_subdivisions: int = 32768,
) -> QuadratureInfo:
    """Adaptive Simpson integration of f over [a, b].

    Refines the interval stack until each piece passes the Richardson
    test |S_halves - S| <= 15 * tol_piece, with the budget apportioned
    by subinterval width.  The accepted value per piece includes the
    /15 Richardson correction.  Raises QuadratureError (carrying the
    achieved relative error) if the subdivision budget runs out.
    """
    if not b > a:
        raise ValueError("integration bounds must satisfy a < b")
    fa = f(a)
    fb = f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    evals = 3
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    scale = max(abs(whole), _SCALE_FLOOR)
    total = 0.0
    err = 0.0
    intervals = 0
    splits = 0
    # stack entries: left, right, f(left), f(mid), f(right), simpson, tol
    stack = [(a, b, fa, fm, fb, whole, rel_tol * scale)]
    while stack:
        x0, x1, f0, fmid, f1, s, tol = stack.pop()
        mid = 0.5 * (x0 + x1)
        lm = 0.5 * (x0 + mid)
        rm = 0.5 * (mid + x1)
        flm = f(lm)
        frm = f(rm)
        evals += 2
        s_left = (mid - x0) * (f0 + 4.0 * flm + fmid) / 6.0
        s_right = (x1 - mid) * (fmid + 4.0 * frm + f1) / 6.0
        delta = s_left + s_right - s
        degenerate = lm <= x0 or rm >= x1  # interval at float resolution
        if abs(delta) <= 15.0 * tol or degenerate:
            total += s_left + s_right + delta / 15.0
            err += abs(delta) / 15.0
            intervals += 1
            continue
        splits += 1
        if splits > max_subdivisions:
            achieved = (err + abs(delta)) / scale
            raise QuadratureError(
                f"adaptive Simpson exceeded {max_subdivisions} subdivisions "
                f"(achieved relative error {achieved:.3e}, requested {rel_tol:.3e})",
                achieved_rel_error=achieved,
            )
        half_tol = 0.5 * tol
        stack.append((x0, mid, f0, flm, fmid, s_left, half_tol))
        stack.append((mid, x1, fmid, frm, f1, s_right, half_tol))
    return QuadratureInfo(value=total, error=err, evals=evals, intervals=intervals)


def detuning_ratio_profile(r):
    """Flip probability as a function of r = detuning/(2*omega0).

    Universal pulse-shape curve: 1 at r = 0, 1/2 at r = +/-1, with
    oscillatory tails; vectorizes over r.
    """
    r = np.asarray(r, dtype=float)
    s = 1.0 + r * r
    return np.sin(0.5 * math.pi * np.sqrt(s)) ** 2 / s


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

    Integrates the Gaussian density (center state.z, width state.dz)
    against point_probability over +/- window_sigmas widths, then clamps
    to [0, 1] against roundoff.  The pulse must address the packet's
    stretched pair (matching sigma).
    """
    if settings is None:
        settings = QuadratureSettings()
    if state.sigma != pulse.branch.sigma:
        raise LevelMismatchError(
            f"pulse drives the sigma={pulse.branch.sigma} pair but the packet "
            f"has sigma={state.sigma}"
        )
    center = state.z
    width = state.dz
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * width)

    def integrand(z: float) -> float:
        gauss = norm * math.exp(-0.5 * ((z - center) / width) ** 2)
        return gauss * float(point_probability(z, pulse, cfg))

    info = adaptive_simpson(
        integrand,
        center - settings.window_sigmas * width,
        center + settings.window_sigmas * width,
        rel_tol=settings.rel_tol,
        max_subdivisions=settings.max_subdivisions,
    )
    value = min(1.0, max(0.0, info.value))
    if detail:
        return value, info
    return value


@lru_cache(maxsize=8)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _packet_rule(
    dz: float, order: int, window_sigmas: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Node offsets, combined weights (density * quadrature weight), half-window."""
    if dz <= 0.0:
        raise ValueError("dz must be positive")
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
    order: int = 201,
    window_sigmas: float = 8.0,
) -> np.ndarray:
    """Packet-averaged flip probability for many centers at a common width.

    Fixed-order Gauss-Legendre version of transition_probability: one
    (n_centers, order) evaluation of the point probability, reduced row
    by row, so a batch split into chunks reproduces the unsplit result
    bit for bit.

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
    offsets, factors, half = _packet_rule(dz, order, window_sigmas)
    if centers.size:
        ends = np.array([centers.min() - half, centers.max() + half])
        slope = float(np.max(np.abs(d_transition_dz(pulse.branch, ends, cfg))))
        phase = slope * half * pulse.tau
        if not phase <= _MAX_PHASE_PER_NODE * order:
            raise QuadratureError(
                f"packet width {dz:.6g} m is too wide for the {order}-node rule: "
                f"the detuning phase changes by {phase:.6g} rad across the window, "
                f"more than the {_MAX_PHASE_PER_NODE * order:.6g} rad it resolves"
            )
    z_grid = centers[:, None] + offsets[None, :]
    vals = point_probability(z_grid, pulse, cfg)
    out = np.sum(vals * factors[None, :], axis=1)
    return np.clip(out, 0.0, 1.0)


def averaged_probability_bound(
    centers: np.ndarray,
    dz: float,
    pulse: PulseSpec,
    cfg: FieldConfig,
    order: int = 201,
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
    _, factors, half = _packet_rule(dz, order, window_sigmas)
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
