"""Stretched-state hyperfine energies in a linear magnetic field gradient.

An alkali ground state splits into the hyperfine levels F = I -/+ 1/2.
In a field B(z) = eta*z + bias the fully polarized (stretched) sublevels
m_F = +/-F are the only ones whose energies stay analytic at all fields,
and the microwave transition between the paired stretched states
|F-, s*F-> and |F+, s*F+> (s = +/-1) acquires a position-dependent
frequency.  This module evaluates those energies, the transition
frequency and its spatial derivative, and inverts frequency to position.

Energies are offset so the two zero-field hyperfine levels sit at
-/+ hbar*delta_W/2.  The dimensionless field coordinate is
x = g_sum * B / (hbar * delta_W), which for a pure gradient reduces to
kappa * z with kappa = g_sum * eta / (hbar * delta_W).  The species
carries g_sum and the slopes gamma1, gamma2 (AtomSpecies).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .constants import CONST, AtomSpecies
from .errors import NoBracketError, ZeroGradientError

_POSITION_RANGE = (-1.0, 1.0)  # m, where resonant_position looks for a root


class Level(enum.Enum):
    """Hyperfine level label: LOWER is F = I - 1/2, UPPER is F = I + 1/2."""

    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class StretchedBranch:
    """The stretched pair |F-, s*F-> <-> |F+, s*F+> with sigma = s = +/-1."""

    sigma: int

    def __post_init__(self) -> None:
        if self.sigma not in (1, -1):
            raise ValueError("sigma must be +1 or -1")


@dataclass(frozen=True)
class FieldConfig:
    """Static field model B(z) = eta*z + bias for one species.

    eta in T/m, bias in T.  eta = 0 is allowed here (kappa and epsilon
    are still defined) but every position-selective operation rejects it
    with ZeroGradientError.  |eta| <= 1e4 T/m and |bias| <= 1e3 T, far
    past any laboratory magnet, keep every field on the position range
    and every quantity derived from it finite.
    """

    eta: float
    bias: float
    species: AtomSpecies

    def __post_init__(self) -> None:
        if not np.isfinite(self.eta) or not np.isfinite(self.bias):
            raise ValueError("eta and bias must be finite")
        if abs(self.eta) > 1e4 or abs(self.bias) > 1e3:
            raise ValueError("|eta| must be at most 1e4 T/m and |bias| at most 1e3 T")


def kappa(cfg: FieldConfig) -> float:
    """Inverse length scale g_sum*eta/(hbar*delta_W) of the gradient (1/m)."""
    return cfg.species.g_sum * cfg.eta / (CONST.hbar * cfg.species.delta_W)


def epsilon(cfg: FieldConfig) -> float:
    """Dimensionless recoil-to-hyperfine ratio hbar*kappa^2/(2*M*delta_W).

    Quantifies how strongly the gradient couples the internal transition
    to the center-of-mass motion; always >= 0 and ~1e-20 for realistic
    gradients.
    """
    k = kappa(cfg)
    return CONST.hbar * k * k / (2.0 * cfg.species.mass * cfg.species.delta_W)


def field_coordinate(cfg: FieldConfig, z):
    """Dimensionless field coordinate x = g_sum*(eta*z + bias)/(hbar*delta_W)."""
    return cfg.species.g_sum * (cfg.eta * z + cfg.bias) / (
        CONST.hbar * cfg.species.delta_W
    )


def _energy_dimensionless(level: Level, u, species: AtomSpecies):
    """Stretched-state energy in units of hbar*delta_W at u = sigma*x."""
    if level is Level.UPPER:
        return 0.5 + species.gamma1 * u
    fm = species.f_minus
    ratio = fm / species.f_plus
    return -fm * species.gamma2 * u - 0.5 * np.sqrt(1.0 + 2.0 * ratio * u + u * u)


def eigenvalue(branch: StretchedBranch, level: Level, kz, species: AtomSpecies):
    """Energy (J) of the branch's stretched state in level at dimensionless field kz."""
    u = branch.sigma * kz
    return CONST.hbar * species.delta_W * _energy_dimensionless(level, u, species)


def transition_angular_frequency(branch: StretchedBranch, z, cfg: FieldConfig):
    """Angular frequency (rad/s) of the stretched pair transition at z.

    Equals delta_W exactly where the total field vanishes.
    """
    u = branch.sigma * field_coordinate(cfg, z)
    species = cfg.species
    return species.delta_W * (
        _energy_dimensionless(Level.UPPER, u, species)
        - _energy_dimensionless(Level.LOWER, u, species)
    )


def d_transition_dz(branch: StretchedBranch, z, cfg: FieldConfig):
    """Analytic spatial derivative of the transition frequency (rad/s/m).

    d/du is gamma1 for the upper level and -F-*gamma2 - (r + u)/(2*S) for
    the lower, S = sqrt(1 + 2*r*u + u^2), r = F-/F+.  The finite-difference
    version exists only as a test oracle.
    """
    sigma = branch.sigma
    u = sigma * field_coordinate(cfg, z)
    species = cfg.species
    fm = species.f_minus
    ratio = fm / species.f_plus
    root = np.sqrt(1.0 + 2.0 * ratio * u + u * u)
    lower = -fm * species.gamma2 - (ratio + u) / (2.0 * root)
    return kappa(cfg) * species.delta_W * (sigma * species.gamma1 - sigma * lower)


def resonant_position(
    omega_A: float, branch: StretchedBranch, cfg: FieldConfig
) -> float:
    """Position (m) in [-1, 1] m where the transition frequency equals omega_A.

    Closed form, no iteration.  In units of delta_W the transition is
    1/2 + b*u + sqrt(1 + 2*r*u + u^2)/2 with u = sigma*x, b = gamma1 +
    F-*gamma2 and r = F-/F+.  With c = omega_A/delta_W - 1/2, resonance
    means sqrt(1 + 2*r*u + u^2) = 2*(c - b*u); squaring gives

        (1 - 4*b^2)*u^2 + (2*r + 8*b*c)*u + (1 - 4*c^2) = 0,

    whose roots are taken in the cancellation-free form
    q = -(B + sign(B)*sqrt(B^2 - 4*A*C))/2, u in {C/q, q/A} (A vanishes,
    leaving a linear equation, only when g_I = 0).  A root with
    c - b*u < 0 solves only the squared equation and is dropped; of the
    rest the one inside the range is kept, and z = (sigma*u - x(0))/kappa.

    Raises ZeroGradientError for a zero gradient, and NoBracketError
    unless the transition frequencies at the two ends of the range
    straddle omega_A, which leaves exactly one root inside it.  The
    transition is convex, with its minimum at u = -r - 2*b*sqrt((1 -
    r^2)/A) when A > 0; where that lies inside the range the message
    counts it in the range and says when omega_A is crossed twice.
    """
    k = kappa(cfg)
    if k == 0.0:
        raise ZeroGradientError("resonant_position requires a nonzero gradient")
    species = cfg.species
    b = species.gamma1 + species.f_minus * species.gamma2
    r = species.f_minus / species.f_plus
    qa = 1.0 - 4.0 * b * b
    x0 = float(field_coordinate(cfg, 0.0))
    za, zb = _POSITION_RANGE
    ends = [float(transition_angular_frequency(branch, z, cfg)) for z in (za, zb)]
    fa, fb = (f - omega_A for f in ends)
    if fa == 0.0:
        return za
    if fb == 0.0:
        return zb
    if not fa * fb < 0.0:  # also rejects a NaN frequency
        lo, hi = sorted(ends)
        where = "outside"
        if qa > 0.0:
            u_min = -r - 2.0 * b * math.sqrt((1.0 - r * r) / qa)
            z_min = (branch.sigma * u_min - x0) / k
            if za < z_min < zb:
                lo = float(transition_angular_frequency(branch, z_min, cfg))
                if lo <= omega_A < hi:
                    where = f"crossed twice, either side of z = {z_min:.6e} m, in"
        raise NoBracketError(
            f"omega_A = {omega_A:.6e} rad/s is {where} the transition range "
            f"[{lo:.6e}, {hi:.6e}] attained on [{za:g}, {zb:g}] m"
        )
    c = omega_A / species.delta_W - 0.5
    qb, qc = 2.0 * r + 8.0 * b * c, 1.0 - 4.0 * c * c
    q = -0.5 * (qb + math.copysign(math.sqrt(qb * qb - 4.0 * qa * qc), qb))
    roots = [qc / q] + ([q / qa] if qa else [])
    z = min(
        ((branch.sigma * u - x0) / k for u in roots if c - b * u >= 0.0),
        key=lambda z: abs(z - 0.5 * (za + zb)),
    )
    return z + 0.0  # +0.0 folds -0.0 into 0.0
