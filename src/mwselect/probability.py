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
Carlo batches).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .breit_rabi import FieldConfig
from .dynamics import WavepacketState
from .errors import LevelMismatchError, QuadratureError
from .selection import PulseSpec, detuning

_SCALE_FLOOR = 1e-12  # absolute floor for the relative-error scale


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
    bit for bit.  No error estimate is made.  At order 201, against a
    4M-point midpoint sum at 25 G/cm and tau = 10 us, the error is below
    2e-12 for dz from 3 to 100 um, but 2.4e-2 at dz = 300 um, where the
    window holds too many detuning oscillations for a fixed rule.
    """
    if dz <= 0.0:
        raise ValueError("dz must be positive")
    centers = np.asarray(centers, dtype=float)
    nodes, weights = _gauss_legendre(order)
    half = window_sigmas * dz
    offsets = half * nodes
    gauss = np.exp(-0.5 * (offsets / dz) ** 2) / (math.sqrt(2.0 * math.pi) * dz)
    factors = gauss * weights * half  # combined density * quadrature weight
    z_grid = centers[:, None] + offsets[None, :]
    vals = point_probability(z_grid, pulse, cfg)
    out = np.sum(vals * factors[None, :], axis=1)
    return np.clip(out, 0.0, 1.0)
