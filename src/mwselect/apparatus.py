"""Gradient coils and the field-stability requirements of the selection.

The gradient is produced by a coaxial coil pair carrying opposite
currents (anti-Helmholtz).  On axis the field is odd in z, vanishes at
the midpoint and is linear nearby; the helpers here give the field, the
central gradient, the region where the linear model holds, and how
stable the bias and gradient must be for the selected slice to stay put.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .breit_rabi import FieldConfig
from .constants import CONST
from .errors import ZeroGradientError
from .selection import SelectionResult


_GEOMETRY_RANGE = (1e-6, 10.0)  # m, coil radius and half-separation
_CURRENT_RANGE = (1e-6, 1e6)  # A, a nonzero |current|
_MAX_TURNS = 10**6


@dataclass(frozen=True)
class CoilPair:
    """Two coaxial loops at z = +/-half_separation with opposed currents.

    radius and half_separation in m, each in [1 um, 10 m]; current in A,
    0 or |current| in [1 uA, 1 MA]; turns per coil, in [1, 10**6].  These
    bounds keep the field and the central gradient finite, and a nonzero
    gradient far from subnormal, where it would silently lose digits.
    The sign convention puts the positive-gradient loop at negative z, so
    a positive current gives a positive central gradient.
    """

    radius: float
    current: float
    half_separation: float
    turns: int = 1

    def __post_init__(self) -> None:
        lo, hi = _GEOMETRY_RANGE
        if not (lo <= self.radius <= hi and lo <= self.half_separation <= hi):
            raise ValueError(
                f"radius and half_separation must lie in [{lo:g} m, {hi:g} m]"
            )
        lo, hi = _CURRENT_RANGE
        if not (self.current == 0.0 or lo <= abs(self.current) <= hi):
            raise ValueError(f"|current| must be 0 or lie in [{lo:g} A, {hi:g} A]")
        if not 1 <= self.turns <= _MAX_TURNS:
            raise ValueError(f"turns must lie in [1, {_MAX_TURNS}]")


def on_axis_field(coils: CoilPair, z):
    """Axial field B(z) in T midway between the loops; vectorizes over z."""
    r2 = coils.radius * coils.radius
    pre = 0.5 * CONST.mu0 * coils.turns * coils.current * r2
    z = np.asarray(z, dtype=float)
    near = r2 + (z - coils.half_separation) ** 2
    far = r2 + (z + coils.half_separation) ** 2
    return pre * (near**-1.5 - far**-1.5)


def gradient_at_center(coils: CoilPair) -> float:
    """Central gradient dB/dz (T/m): 3*mu0*N*I*R^2*d/(R^2+d^2)^(5/2)."""
    r2 = coils.radius * coils.radius
    d = coils.half_separation
    return (
        3.0
        * CONST.mu0
        * coils.turns
        * coils.current
        * r2
        * d
        / (r2 + d * d) ** 2.5
    )


def current_for_gradient(
    eta: float, radius: float, half_separation: float, turns: int = 1
) -> float:
    """Current (A) a CoilPair needs to produce central gradient eta (T/m)."""
    probe = CoilPair(
        radius=radius, current=1.0, half_separation=half_separation, turns=turns
    )
    per_amp = gradient_at_center(probe)
    return eta / per_amp


def max_gradient_half_separation(radius: float) -> float:
    """Half-separation maximizing the central gradient at fixed R and I.

    Setting d/dd of d*(R^2+d^2)^(-5/2) to zero gives d = R/2.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    return 0.5 * radius


def shifted_zero(eta: float, bias: float) -> float:
    """Position (m) where a uniform bias moves the field zero: -bias/eta."""
    if eta == 0.0:
        raise ZeroGradientError("shifted zero is undefined without a gradient")
    return -bias / eta + 0.0  # +0.0 folds -0.0 into 0.0


def linearity_region(coils: CoilPair, rel_tol: float = 0.01) -> float:
    """Largest |z| (m) where B(z) deviates from the linear model by <= rel_tol.

    The relative deviation |B(z)/(eta0*z) - 1| grows from zero like z^2,
    so the boundary is found by bisection out to min(R, d).  If the
    deviation never reaches rel_tol inside that range, the range bound
    is returned.  ZeroGradientError is raised when eta0*z underflows to
    zero at a probed z, where the deviation has no value.
    """
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    eta0 = gradient_at_center(coils)
    if eta0 == 0.0:
        raise ZeroGradientError("linearity region needs a nonzero central gradient")
    cap = min(coils.radius, coils.half_separation)

    def deviation(z: float) -> float:
        linear = eta0 * z
        if linear == 0.0:
            raise ZeroGradientError("linearity region: eta0*z underflows to zero")
        return abs(float(on_axis_field(coils, z)) / linear - 1.0)

    if deviation(cap) <= rel_tol:
        return cap
    lo, hi = 1e-9 * cap, cap
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if deviation(mid) <= rel_tol:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class StabilityBudget:
    """How steady the field must be to keep the selected slice in place.

    The slice moves when the resonance does; holding the shift below the
    half-width (equivalently the detuning below the on-resonance Rabi
    frequency) bounds the bias drift and, over a lever arm of
    displacement, the fractional gradient drift.
    """

    bias_tolerance_T: float
    bias_tolerance_G: float
    gradient_fraction: float
    displacement_m: float
    criterion: str = "|detuning drift| < on-resonance Rabi frequency"


def stability_budget(
    sel: SelectionResult, cfg: FieldConfig, displacement: float
) -> StabilityBudget:
    """Field-stability tolerances for one resolved pulse.

    A bias change dB shifts the resonance by dB/eta, so the position
    budget delta_z/2 translates to a bias budget (delta_z/2)*eta and to
    a gradient budget delta_z/(2*displacement) for atoms a distance
    displacement from the field zero.
    """
    if displacement <= 0.0:
        raise ValueError("displacement must be positive")
    if cfg.eta == 0.0:
        raise ZeroGradientError("stability budget requires a nonzero gradient")
    width = sel.position_width
    bias_tol = 0.5 * width * abs(cfg.eta)
    return StabilityBudget(
        bias_tolerance_T=bias_tol,
        bias_tolerance_G=bias_tol * 1e4,
        gradient_fraction=width / (2.0 * displacement),
        displacement_m=displacement,
    )
